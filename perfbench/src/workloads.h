// The four benchmark workloads. Each builds every input from Args::seed,
// runs its untraced (end-to-end) or traced (per-layer) mode, checks its
// outputs and fills the report.
#pragma once

#include "harness.h"

namespace perfbench {

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetups = 7;

void run_fl_materialized_oasis(const Args& args, Report& report);
void run_fl_sharded_population(const Args& args, Report& report);
void run_net_loopback_linear(const Args& args, Report& report);
void run_attack_eval(const Args& args, Report& report);

}  // namespace perfbench
