#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/oasis.h"
#include "nn/model_io.h"
#include "obs/obs.h"

namespace perfbench {

std::uint64_t now_ns() {
  static const Clock::time_point t0 = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return {0, 0};
  // user nice system idle iowait irq softirq steal ...
  std::uint64_t total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::uint64_t digest(const oasis::tensor::ByteBuffer& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

std::size_t upload_bytes(const oasis::fl::ModelFactory& factory) {
  const auto model = factory();
  return oasis::tensor::serialize_tensors(oasis::nn::snapshot_gradients(*model))
      .size();
}

std::unique_ptr<FederationInputs> make_federation_inputs(
    std::uint64_t seed, const FederationShape& shape, ModelMaker make_model) {
  using namespace oasis;
  auto in = std::make_unique<FederationInputs>();
  data::SynthConfig cfg = data::synth_imagenet_config();
  cfg.num_classes = shape.classes;
  cfg.height = cfg.width = shape.extent;
  cfg.train_per_class = shape.train_per_class;
  cfg.test_per_class = shape.test_per_class;
  cfg.seed = derive_seed(seed, 1);
  in->dataset = data::generate(cfg);
  in->shards = in->dataset.train.shard(shape.clients);
  const nn::ImageSpec spec{3, shape.extent, shape.extent};
  const index_t classes = shape.classes;
  const std::uint64_t init_seed = derive_seed(seed, 2);
  in->factory = [spec, classes, init_seed, make = std::move(make_model)] {
    common::Rng rng(init_seed);  // fresh per call: the factory must be pure
    return make(spec, classes, rng);
  };
  in->oasis = core::make_preprocessor({augment::TransformKind::kMajorRotation});
  in->selection_seed = derive_seed(seed, 3);
  in->client_seed = derive_seed(seed, 4);
  return in;
}

// ---- Report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  metrics_.emplace_back(name, Metric{value, unit, detail});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++checks_failed_;
  }
  notes_.push_back(std::string(ok ? "check ok   " : "check FAIL ") + name +
                   ": " + detail);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

std::vector<std::string> Report::select(
    const std::vector<std::pair<std::string, std::string>>& names,
    const std::string& missing_detail) {
  std::vector<std::string> unknown;
  for (const auto& m : metrics_) {
    bool known = false;
    for (const auto& n : names) known = known || n.first == m.first;
    if (!known) unknown.push_back(m.first);
  }
  std::vector<std::pair<std::string, Metric>> out;
  for (const auto& [name, unit] : names) {
    bool found = false;
    for (const auto& m : metrics_) {
      if (m.first == name) {
        out.push_back(m);
        found = true;
        break;
      }
    }
    if (!found) out.emplace_back(name, Metric{0.0, unit, missing_detail});
  }
  metrics_ = std::move(out);
  return unknown;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Report::print() const {
  for (const auto& n : notes_) std::cout << n << "\n";
  for (const auto& [name, m] : metrics_) {
    std::cout << "metric " << name << " = " << json_number(m.value) << " "
              << m.unit;
    if (!m.detail.empty()) std::cout << "  (" << m.detail << ")";
    std::cout << "\n";
  }
  std::ostringstream js;
  js << "{\"correct\": " << (checks_failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) js << ", ";
    first = false;
    js << json_string(name) << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

// ---- SpanLog ----------------------------------------------------------------

int SpanLog::begin(const std::string& name, int parent, std::uint64_t round,
                   int tid) {
  SpanEvent e;
  e.name = name;
  e.parent = parent;
  e.round = round;
  e.tid = tid;
  e.start_ns = now_ns();
  events_.push_back(std::move(e));
  return static_cast<int>(events_.size()) - 1;
}

void SpanLog::end(int id) { events_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

int SpanLog::time(const std::string& name, int parent, std::uint64_t round,
                  const std::function<void()>& fn, int tid) {
  const int id = begin(name, parent, round, tid);
  fn();
  end(id);
  return id;
}

void SpanLog::absorb(SpanLog&& other, int parent) {
  const int base = static_cast<int>(events_.size());
  for (auto& e : other.events_) {
    e.parent = e.parent < 0 ? parent : e.parent + base;
    events_.push_back(std::move(e));
  }
  other.events_.clear();
}

double SpanLog::duration_ms(int id) const {
  const auto& e = events_[static_cast<std::size_t>(id)];
  return ns_to_ms(e.end_ns - e.start_ns);
}

double SpanLog::children_ms(int id) const {
  double sum = 0.0;
  for (const auto& e : events_) {
    if (e.parent == id) sum += ns_to_ms(e.end_ns - e.start_ns);
  }
  return sum;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& e : events_) {
    if (e.name == name) out.push_back(ns_to_ms(e.end_ns - e.start_ns));
  }
  return out;
}

double SpanLog::mean_ms(const std::string& name) const {
  return mean(durations(name));
}

std::size_t SpanLog::count(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& e : events_) n += e.name == name ? 1 : 0;
  return n;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace " << path << "\n";
    return;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& e = events_[i];
    char ts[64];
    char dur[64];
    std::snprintf(ts, sizeof(ts), "%.3f", static_cast<double>(e.start_ns) / 1e3);
    std::snprintf(dur, sizeof(dur), "%.3f",
                  static_cast<double>(e.end_ns - e.start_ns) / 1e3);
    out << (i == 0 ? "" : ",\n") << "{\"name\": " << json_string(e.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
        << ", \"ts\": " << ts << ", \"dur\": " << dur
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << e.parent
        << ", \"round\": " << e.round << "}}";
  }
  out << "\n]}\n";
}

// ---- Timing loop and shared metrics ----------------------------------------

std::vector<double> timed_rounds(double seconds, std::size_t min_rounds,
                                 const std::function<std::uint64_t()>& round,
                                 std::uint64_t& updates) {
  std::vector<double> ms;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  while (ms.size() < min_rounds || now_ns() - start < budget) {
    const std::uint64_t t0 = now_ns();
    updates += round();
    ms.push_back(ns_to_ms(now_ns() - t0));
  }
  return ms;
}

void timed_rounds_with_accuracy(double seconds, std::size_t first,
                                std::size_t accuracy_round,
                                const std::function<std::uint64_t()>& round,
                                const std::function<double()>& evaluate,
                                EndToEnd& e2e) {
  constexpr std::size_t kEvals = 10;
  constexpr std::size_t kEvery = 5;
  const std::size_t first_eval = accuracy_round - kEvery * (kEvals - 1);
  std::size_t done = first;
  std::vector<double> accuracy;
  for (std::size_t k = 0; k < kEvals; ++k) {
    const std::size_t target = first_eval + k * kEvery;
    if (target > done) {
      const auto ms = timed_rounds(0.0, target - done, round, e2e.updates);
      e2e.round_ms.insert(e2e.round_ms.end(), ms.begin(), ms.end());
      done = target;
    }
    accuracy.push_back(evaluate());
  }
  double used_s = 0.0;
  for (const double m : e2e.round_ms) used_s += m / 1e3;
  const auto rest =
      timed_rounds(std::max(0.0, seconds - used_s), 0, round, e2e.updates);
  e2e.round_ms.insert(e2e.round_ms.end(), rest.begin(), rest.end());
  e2e.test_accuracy = mean(accuracy);
  e2e.accuracy_note = "mean of " + std::to_string(kEvals) +
                      " evaluations, rounds " + std::to_string(first_eval) +
                      "-" + std::to_string(accuracy_round) + " every " +
                      std::to_string(kEvery);
}

void emit_end_to_end(const EndToEnd& e2e, Report& report) {
  double busy_s = e2e.busy_s;
  if (busy_s == 0.0) {
    for (const double m : e2e.round_ms) busy_s += m / 1e3;
  }
  const auto n = std::to_string(e2e.round_ms.size());
  report.metric("setup_s", median(e2e.setup_s), "s",
                "median of " + std::to_string(e2e.setup_s.size()) +
                    " set-ups in this run, min " +
                    std::to_string(quantile(e2e.setup_s, 0.0)) + " max " +
                    std::to_string(quantile(e2e.setup_s, 1.0)));
  report.metric("client_updates_per_s",
                busy_s > 0.0 ? static_cast<double>(e2e.updates) / busy_s : 0.0,
                "1/s",
                std::to_string(e2e.updates) + " updates over " +
                    std::to_string(busy_s) + " s of timed rounds");
  report.metric("round_ms_p50", quantile(e2e.round_ms, 0.5), "ms",
                "n=" + n + " rounds");
  report.metric("round_ms_p90", quantile(e2e.round_ms, 0.9), "ms",
                "n=" + n + " rounds");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM");
  const double attempted = static_cast<double>(report.attempted_count());
  const double failed = static_cast<double>(report.failed_count());
  report.metric("ok_ratio", attempted > 0 ? 1.0 - failed / attempted : 0.0,
                "ratio",
                "1 - fail_ratio; failed " + std::to_string(report.failed_count()) +
                    " of " + std::to_string(report.attempted_count()) +
                    " attempted operations");
  report.metric("upload_bytes_per_update", e2e.upload_bytes_per_update, "B");
  report.metric("test_accuracy", e2e.test_accuracy, "ratio", e2e.accuracy_note);
  report.metric("oasis_psnr_db_p50", e2e.oasis_psnr_db_p50, "dB",
                e2e.psnr_note);
}

std::uint64_t obs_counter(const std::string& name) {
  for (const auto& [n, v] : oasis::obs::Registry::global().counters()) {
    if (n == name) return v;
  }
  return 0;
}

double obs_span_mean_ms(const std::string& path) {
  for (const auto& [p, s] : oasis::obs::Registry::global().spans()) {
    if (p == path && s.count > 0) {
      return static_cast<double>(s.inclusive_ns) / 1e6 /
             static_cast<double>(s.count);
    }
  }
  return 0.0;
}

double report_obs_round_spans(Report& report) {
  report.metric("obs.fl.round.ms", obs_span_mean_ms("fl.round"), "ms");
  report.metric("obs.fl.round.dispatch.ms", obs_span_mean_ms("fl.round/dispatch"), "ms");
  report.metric("obs.fl.round.aggregate.ms", obs_span_mean_ms("fl.round/aggregate"), "ms");
  const double client_round = obs_span_mean_ms("fl.client_round");
  report.metric("obs.fl.client_round.ms", client_round, "ms");
  return client_round;
}

void report_accepted_ratio(Report& report) {
  const std::uint64_t accepted = obs_counter("fl.validate.accepted");
  const std::uint64_t screened = accepted + obs_counter("fl.validate.rejected");
  report.metric("fl.validate.accepted_ratio",
                screened > 0 ? static_cast<double>(accepted) / static_cast<double>(screened) : 0.0,
                "ratio", std::to_string(accepted) + " accepted / " +
                             std::to_string(screened) + " screened");
}

void report_flops_per_update(std::uint64_t flops, std::uint64_t updates,
                             const std::string& what, Report& report) {
  report.metric("tensor.gemm.flop_per_update",
                updates > 0 ? static_cast<double>(flops) / static_cast<double>(updates) : 0.0,
                "flop", "kernel.gemm.flops over " + std::to_string(updates) + " " + what);
}

void report_overhead(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms,
                     const std::string& samples, Report& report) {
  const double traced = median(traced_ms);
  const double untraced = median(untraced_ms);
  report.metric("trace.overhead_ratio", untraced > 0.0 ? traced / untraced : 0.0,
                "ratio", "traced p50 " + std::to_string(traced) +
                             " ms / untraced p50 " + std::to_string(untraced) +
                             " ms, n=" + samples);
}

void report_unaccounted(double obs_client_round_ms, double per_layer_ms,
                        Report& report) {
  report.metric("trace.client_round.unaccounted_share",
                obs_client_round_ms > 0.0 ? 1.0 - per_layer_ms / obs_client_round_ms : 0.0,
                "ratio", "base obs.fl.client_round.ms " +
                             std::to_string(obs_client_round_ms) +
                             " ms, per-layer spans " +
                             std::to_string(per_layer_ms) + " ms per client");
}

}  // namespace perfbench
