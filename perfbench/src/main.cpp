// oasis_perfbench — the repository benchmark binary.
//
//   oasis_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-dir <dir>]
//
// Runs one workload in one process with min(4, nproc) pool threads. The
// untraced run (--trace 0) prints the end-to-end metrics, the traced run
// (--trace 1) the per-layer metrics and a Chrome trace in --trace-dir. The
// last stdout line is the JSON result object; a run whose workload throws
// prints no result and exits non-zero.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "runtime/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

using MetricNames = std::vector<std::pair<std::string, std::string>>;

/// Name and unit of every per-layer metric, in print order. A traced run
/// prints all of them; a layer the workload bypasses reads 0.
MetricNames per_layer_metrics() {
  MetricNames m;
  const auto add = [&m](const std::string& name, const std::string& unit) {
    m.emplace_back(name, unit);
  };
  // nn: the 10 MiniConvNet layers and the attack host.
  const char* layers[] = {"00.Conv2d", "01.ReLU",    "02.MaxPool2d", "03.Conv2d",
                          "04.ReLU",   "05.MaxPool2d", "06.Flatten", "07.Dense",
                          "08.ReLU",   "09.Dense"};
  for (const char* l : layers) add(std::string("nn.fwd.") + l + ".ms", "ms");
  for (const char* l : layers) add(std::string("nn.bwd.") + l + ".ms", "ms");
  add("nn.loss.ms", "ms");
  add("nn.attack_host.fwd.ms", "ms");
  add("nn.attack_host.bwd.ms", "ms");
  // tensor: GEMM shape classes (MiniConvNet 00/03/07/09, attack Dense 01).
  for (const char* l : {"00.Conv2d", "03.Conv2d", "07.Dense", "09.Dense", "01.Dense"}) {
    for (const char* v : {"fwd", "bwd_w", "bwd_in"}) {
      add(std::string("tensor.gemm.") + l + "." + v + ".gflops", "GFLOP/s");
    }
  }
  add("tensor.gemm.flop_per_update", "flop");
  for (const char* t : {"im2col", "col2im", "serialize", "deserialize", "scan"}) {
    add(std::string("tensor.") + t + ".ms", "ms");
  }
  add("common.crc32c.gb_per_s", "GB/s");
  add("common.crc32c.ms_per_update", "ms");
  add("augment.oasis.ms", "ms");
  add("augment.expansion", "ratio");
  for (const char* f : {"dispatch", "client.load_state", "client.handle_round",
                        "defense.apply", "screen", "fold", "commit",
                        "population.make_client", "ckpt.encode"}) {
    add(std::string("fl.") + f + ".ms", "ms");
  }
  add("fl.train.imbalance", "ratio");
  add("fl.shard.serial_share", "ratio");
  add("fl.validate.accepted_ratio", "ratio");
  add("ckpt.parse.ms", "ms");
  for (const char* n : {"net.frame.encode_update.ms", "net.frame.decode_update.ms",
                        "net.frame.encode_model.ms", "net.server.step_ms_per_round",
                        "net.client.step_ms_per_round", "net.round.latency_ms_p50",
                        "net.round.wait_ms"}) {
    add(n, "ms");
  }
  add("net.bytes_per_round", "B");
  add("net.frames_per_round", "count");
  for (const char* a : {"attack.implant.ms", "attack.reconstruct.ms",
                        "attack.best_match_psnr.ms"}) {
    add(a, "ms");
  }
  add("attack.rtf.bins_leaked_ratio", "ratio");
  add("attack.recon.candidates_valid_ratio", "ratio");
  add("attack.audit.ms", "ms");
  add("attack.audit.refused_ratio", "ratio");
  for (const char* o : {"obs.fl.round.ms", "obs.fl.round.dispatch.ms",
                        "obs.fl.round.aggregate.ms", "obs.fl.client_round.ms"}) {
    add(o, "ms");
  }
  add("trace.overhead_ratio", "ratio");
  add("trace.client_round.unaccounted_share", "ratio");
  return m;
}

const MetricNames kEndToEnd = {
    {"setup_s", "s"},           {"client_updates_per_s", "1/s"},
    {"round_ms_p50", "ms"},     {"round_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},      {"ok_ratio", "ratio"},
    {"upload_bytes_per_update", "B"}, {"test_accuracy", "ratio"},
    {"oasis_psnr_db_p50", "dB"}};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "oasis_perfbench: " << why
            << "\nusage: oasis_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  const int threads =
      static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  oasis::runtime::set_num_threads(static_cast<oasis::index_t>(threads));

  const auto steal0 = cpu_steal_ticks();
  Report report;
  try {
    if (args.workload == "fl_materialized_oasis") {
      run_fl_materialized_oasis(args, report);
    } else if (args.workload == "fl_sharded_population") {
      run_fl_sharded_population(args, report);
    } else if (args.workload == "net_loopback_linear") {
      run_net_loopback_linear(args, report);
    } else if (args.workload == "attack_eval") {
      run_attack_eval(args, report);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "oasis_perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const MetricNames names = args.trace ? per_layer_metrics() : kEndToEnd;
  const auto unknown =
      report.select(names, "not measured: this workload bypasses the layer");
  for (const auto& u : unknown) {
    std::cerr << "oasis_perfbench: internal error: unlisted metric " << u << "\n";
  }
  if (!unknown.empty()) return 3;
  const auto steal1 = cpu_steal_ticks();
  if (steal1.second > steal0.second) {
    report.note("host CPU steal during this run: " +
                std::to_string(100.0 * static_cast<double>(steal1.first - steal0.first) /
                               static_cast<double>(steal1.second - steal0.second)) +
                "% of all CPU time (/proc/stat)");
  }
  report.note("threads " + std::to_string(threads) + ", seed " +
              std::to_string(args.seed) + ", workload " + args.workload +
              (args.trace ? " (traced)" : " (untraced)"));
  report.print();
  return 0;
}
