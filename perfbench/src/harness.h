// Shared plumbing of the repository benchmark: arguments, timing, order
// statistics, the result report, and the in-memory span log of traced runs.
//
// Every workload runs in two modes. The untraced run times the engines only
// through their public round entry points and prints the end-to-end
// metrics. The traced run drives the same rounds through the public
// per-layer calls, records one span per call from this directory's own code,
// prints the per-layer metrics and writes the spans as Chrome trace-event
// JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/preprocessor.h"
#include "nn/models.h"
#include "tensor/serialize.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its Chrome trace
};

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
std::uint64_t now_ns();
inline double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Cumulative host CPU ticks from /proc/stat: {steal, all states}. Steal
/// is time the hypervisor ran something else while a vCPU wanted to run;
/// runs taken while it is high read slow. {0, 0} when unreadable.
std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks();

/// FNV-1a digest of a byte buffer — the "model digest" the checks compare.
std::uint64_t digest(const oasis::tensor::ByteBuffer& bytes);

/// Deterministic 64-bit mix of (seed, stream): every input a workload
/// generates takes its seed from here, so one --seed fixes all of them.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Bytes of one serialized client update (the model's gradient tensors).
std::size_t upload_bytes(const oasis::fl::ModelFactory& factory);

/// Inputs of a materialized federation: synthetic Imagenette-palette data
/// with one train shard per client, a pure model factory, OASIS major
/// rotation on every client, and the selection and client rng seeds.
struct FederationInputs {
  oasis::data::SynthDataset dataset{oasis::data::InMemoryDataset(1, {}),
                                    oasis::data::InMemoryDataset(1, {})};
  std::vector<oasis::data::InMemoryDataset> shards;
  oasis::fl::ModelFactory factory;
  oasis::fl::PreprocessorPtr oasis;
  std::uint64_t selection_seed = 0;
  std::uint64_t client_seed = 0;
};

struct FederationShape {
  oasis::index_t clients;
  oasis::index_t extent;  // images are extent × extent × 3
  oasis::index_t classes;
  oasis::index_t train_per_class;
  oasis::index_t test_per_class;
};

/// Builds model `make_model(spec, classes, rng)` with a fresh rng per call.
using ModelMaker = std::function<std::unique_ptr<oasis::nn::Sequential>(
    const oasis::nn::ImageSpec&, oasis::index_t, oasis::common::Rng&)>;

/// Every input drawn from `seed` through derive_seed streams 1–4.
std::unique_ptr<FederationInputs> make_federation_inputs(
    std::uint64_t seed, const FederationShape& shape, ModelMaker make_model);

/// Result of one benchmark run: output checks, attempted/failed operation
/// counts and named metrics. print() writes the human-readable lines and,
/// last, the one-line JSON result: correct, attempted, failed, metrics.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  /// Records an output check; a failed check counts as one failed operation.
  void check(const std::string& name, bool ok, const std::string& detail);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  void note(const std::string& line);
  /// Keeps only the metrics named in `names`, in that order; a name the
  /// workload did not report is added as 0 with `missing_detail`. Returns
  /// the reported names that are not in `names`.
  std::vector<std::string> select(
      const std::vector<std::pair<std::string, std::string>>& names,
      const std::string& missing_detail);
  [[nodiscard]] std::uint64_t attempted_count() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed_count() const { return failed_; }
  void print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::string detail;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// One timed call: name, [start, end) on the steady clock, the span that
/// caused it (-1 for a root), the round it belongs to, and the thread slot
/// that ran it.
struct SpanEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t round = 0;
  int tid = 0;
};

/// Append-only span log. Not thread-safe: a parallel region gives every
/// slot its own log and absorb()s them serially afterwards, in slot order.
class SpanLog {
 public:
  int begin(const std::string& name, int parent, std::uint64_t round,
            int tid = 0);
  void end(int id);
  /// Runs `fn` inside a span and returns the span id.
  int time(const std::string& name, int parent, std::uint64_t round,
           const std::function<void()>& fn, int tid = 0);
  /// Moves `other`'s spans in; its roots become children of `parent`.
  void absorb(SpanLog&& other, int parent);
  [[nodiscard]] const std::vector<SpanEvent>& events() const { return events_; }
  [[nodiscard]] double duration_ms(int id) const;
  /// Summed duration (ms) of the direct children of span `id`.
  [[nodiscard]] double children_ms(int id) const;
  /// Durations (ms) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Mean duration (ms) of spans named `name`; 0 when none were recorded.
  [[nodiscard]] double mean_ms(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Writes the log as Chrome trace-event JSON ("X" complete events, one
  /// tid per thread slot, parent and round id in args).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<SpanEvent> events_;
};

/// Scoped span on a SpanLog.
class Scoped {
 public:
  Scoped(SpanLog& log, const std::string& name, int parent, std::uint64_t round,
         int tid = 0)
      : log_(log), id_(log.begin(name, parent, round, tid)) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Runs `round` (which returns the number of client updates it folded)
/// until `seconds` have elapsed and at least `min_rounds` ran; returns the
/// per-round wall times in ms and adds the updates to `updates`.
std::vector<double> timed_rounds(double seconds, std::size_t min_rounds,
                                 const std::function<std::uint64_t()>& round,
                                 std::uint64_t& updates);

struct EndToEnd;

/// The timed part of an FL workload's untraced run. Runs `round` from
/// round `first` (the earlier ones were warm-up) through `accuracy_round`,
/// then until `seconds` of round time have passed. test_accuracy is the mean
/// of `evaluate` at 10 points 5 rounds apart, ending at `accuracy_round`,
/// each taken between timed rounds: a single evaluation swings by up to
/// ±20% from one round to the next on the 100-class workload.
void timed_rounds_with_accuracy(double seconds, std::size_t first,
                                std::size_t accuracy_round,
                                const std::function<std::uint64_t()>& round,
                                const std::function<double()>& evaluate,
                                EndToEnd& e2e);

/// Emits the end-to-end metrics every workload shares. `round_ms` holds one
/// sample per timed round; throughput is updates over the summed round time.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> round_ms;
  std::uint64_t updates = 0;
  /// Wall time the updates took; 0 means the sum of round_ms.
  double busy_s = 0.0;
  double upload_bytes_per_update = 0.0;
  // Quality metrics; a workload that has no such output reports 1.0 and
  // says so in `*_note` (every run prints every metric).
  double test_accuracy = 1.0;
  std::string accuracy_note;
  double oasis_psnr_db_p50 = 1.0;
  std::string psnr_note;
};
void emit_end_to_end(const EndToEnd& e2e, Report& report);

/// Reads the obs registry: counter value (0 when absent), and the mean
/// inclusive ms of a span path (0 when absent).
std::uint64_t obs_counter(const std::string& name);
double obs_span_mean_ms(const std::string& path);

// ---- Per-layer metrics several workloads share ------------------------------

/// Reports the program's own round spans (obs.fl.round.ms,
/// obs.fl.round.dispatch.ms, obs.fl.round.aggregate.ms,
/// obs.fl.client_round.ms); returns obs.fl.client_round.ms.
double report_obs_round_spans(Report& report);
/// fl.validate.accepted_ratio from the fl.validate.* counters.
void report_accepted_ratio(Report& report);
/// tensor.gemm.flop_per_update: kernel.gemm.flops over `updates` `what`.
void report_flops_per_update(std::uint64_t flops, std::uint64_t updates,
                             const std::string& what, Report& report);
/// trace.overhead_ratio: traced over untraced p50 round time.
void report_overhead(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms,
                     const std::string& samples, Report& report);
/// trace.client_round.unaccounted_share: the share of the engine's
/// obs.fl.client_round.ms that the traced per-layer client spans (summed
/// per client) leave unaccounted.
void report_unaccounted(double obs_client_round_ms, double per_layer_ms,
                        Report& report);

}  // namespace perfbench
