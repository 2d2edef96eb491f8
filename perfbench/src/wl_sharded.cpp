// fl_sharded_population — many tiny clients on fl::ShardedSimulation.
//
// A 100k-client VirtualPopulation (linear model, 12×12, 8 examples, batch 4,
// OASIS major rotation), hash-threshold cohorts of about 256, shards of 64,
// defense stack clip:10,noise:0.01, and encode_checkpoint() at every round
// boundary. The per-client fixed cost dominates: materialize the client,
// load state, defend (deserialize → apply → reserialize), CRC, screen, the
// serial streaming fold and the checkpoint codec. GEMM does almost nothing.
#include <algorithm>
#include <memory>

#include "ckpt/container.h"
#include "core/oasis.h"
#include "data/synthetic.h"
#include "fl/defense.h"
#include "fl/shard.h"
#include "metrics/accuracy.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "probes.h"
#include "runtime/parallel.h"
#include "workloads.h"

namespace perfbench {

using namespace oasis;

namespace {

constexpr index_t kPopulation = 100'000;
/// The smaller population of the RSS-flatness check (same cohort and
/// shard size, a quarter of the clients).
constexpr index_t kSmallPopulation = 25'000;
constexpr index_t kCohort = 256;
constexpr index_t kShard = 64;
constexpr index_t kExtent = 12;
constexpr real kLearningRate = 0.15;
constexpr std::size_t kWarmupRounds = 1;
constexpr std::size_t kAccuracyRound = 100;

struct Inputs {
  fl::VirtualPopulationConfig population;
  fl::ShardedConfig sharded;
  std::shared_ptr<fl::DefenseStack> defense;
};

Inputs make_inputs(std::uint64_t seed, index_t population) {
  Inputs in;
  fl::VirtualPopulationConfig& pop = in.population;
  pop.num_clients = population;
  pop.seed = derive_seed(seed, 1);
  pop.height = pop.width = kExtent;
  pop.examples_per_client = 8;
  pop.batch_size = 4;
  pop.preprocessor =
      core::make_preprocessor({augment::TransformKind::kMajorRotation});
  const nn::ImageSpec spec{3, kExtent, kExtent};
  const index_t classes = pop.num_classes;
  const std::uint64_t init_seed = derive_seed(seed, 2);
  pop.factory = [spec, classes, init_seed] {
    common::Rng rng(init_seed);  // fresh per call: the factory must be pure
    return nn::make_linear_model(spec, classes, rng);
  };
  in.sharded.cohort_size = kCohort;
  in.sharded.shard_size = kShard;
  in.sharded.seed = derive_seed(seed, 3);
  in.sharded.sampler = fl::CohortSampler::kHashThreshold;
  // Every update must be accepted: one rejection aborts the round with
  // QuorumError instead of folding the rest silently.
  in.sharded.quorum_fraction = 1.0;
  in.defense = fl::parse_defense_stack("clip:10,noise:0.01", derive_seed(seed, 4));
  return in;
}

std::unique_ptr<fl::ShardedSimulation> make_engine(const Inputs& in) {
  auto engine = std::make_unique<fl::ShardedSimulation>(
      std::make_unique<fl::Server>(in.population.factory(), kLearningRate),
      fl::VirtualPopulation(in.population), in.sharded);
  engine->set_defense_stack(in.defense);
  return engine;
}

/// Test images drawn from the population's class palette (the population
/// keys its synthetic classes on the population seed).
data::InMemoryDataset make_test_set(const Inputs& in) {
  data::SynthConfig cfg;
  cfg.num_classes = in.population.num_classes;
  cfg.height = cfg.width = kExtent;
  cfg.train_per_class = 0;
  cfg.test_per_class = 40;
  cfg.seed = in.population.seed;
  return data::generate(cfg).test;
}

/// One round as the workload defines it: run_round plus the round-boundary
/// checkpoint encode. Returns the updates folded: the whole cohort, or 0
/// when a rejected update aborted the round (counted in `aborted` and as
/// one failed operation).
std::uint64_t engine_round(fl::ShardedSimulation& engine, std::uint64_t& aborted,
                           Report& report) {
  index_t cohort = 0;
  try {
    cohort = engine.run_round();
  } catch (const QuorumError&) {
    ++aborted;
    report.attempted(1);
    report.failed(1);
    return 0;
  }
  if (engine.encode_checkpoint().empty()) report.failed(1);
  report.attempted(cohort);
  return cohort;
}

void run_untraced(const Args& args, Report& report) {
  // RSS flatness: a quarter-size population first, then the full one; the
  // peak may not grow with the population (memory is O(shard)).
  std::uint64_t aborted = 0;
  {
    const Inputs small = make_inputs(args.seed, kSmallPopulation);
    auto engine = make_engine(small);
    for (int r = 0; r < 2; ++r) engine_round(*engine, aborted, report);
  }
  const double small_peak = peak_rss_mb();

  EndToEnd e2e;
  Inputs in;
  data::InMemoryDataset test(1, {});
  std::unique_ptr<fl::ShardedSimulation> engine;
  std::vector<std::uint64_t> digests;
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = now_ns();
    in = make_inputs(args.seed, kPopulation);
    test = make_test_set(in);
    engine = make_engine(in);
    for (std::size_t w = 0; w < kWarmupRounds; ++w) engine_round(*engine, aborted, report);
    e2e.setup_s.push_back(ns_to_ms(now_ns() - t0) / 1e3);
    digests.push_back(digest(nn::serialize_state(engine->server().global_model())));
  }
  report.check("model digest identical across set-ups",
               std::all_of(digests.begin(), digests.end(),
                           [&](std::uint64_t d) { return d == digests[0]; }),
               std::to_string(digests.size()) + " set-ups, " +
                   std::to_string(kWarmupRounds) + " rounds each");

  timed_rounds_with_accuracy(
      args.seconds, kWarmupRounds, kAccuracyRound, [&] { return engine_round(*engine, aborted, report); },
      [&] { return metrics::accuracy(engine->server().global_model(), test); }, e2e);
  e2e.accuracy_note += ", " + std::to_string(test.size()) + " test images";
  report.check("no round aborted on a rejected update", aborted == 0,
               std::to_string(aborted) + " aborted rounds");

  const double big_peak = peak_rss_mb();
  report.check("peak RSS flat in population size",
               big_peak <= small_peak * 1.10 + 4.0,
               std::to_string(big_peak) + " MB at " + std::to_string(kPopulation) +
                   " clients vs " + std::to_string(small_peak) + " MB at " +
                   std::to_string(kSmallPopulation));
  e2e.upload_bytes_per_update = static_cast<double>(upload_bytes(in.population.factory));
  e2e.psnr_note = "not applicable: no attack runs in this workload";
  emit_end_to_end(e2e, report);
}

void run_traced(const Args& args, Report& report) {
  const Inputs in = make_inputs(args.seed, kPopulation);
  auto engine = make_engine(in);

  // Untraced baseline rounds on the engine, plus the checkpoint codec
  // (public calls outside run_round, timed here). The traced rounds below
  // run no codec, so the baseline round time leaves it out.
  obs::set_kernel_metrics(false);
  obs::Registry::global().reset();
  std::vector<double> encode_ms, parse_ms;
  std::uint64_t updates = 0;
  auto base_ms = timed_rounds(args.seconds * 0.35, 4, [&] {
    index_t cohort = 0;
    try {
      cohort = engine->run_round();
      report.attempted(cohort);
    } catch (const QuorumError&) {
      report.attempted(1);
      report.failed(1);
    }
    std::uint64_t t0 = now_ns();
    tensor::ByteBuffer bytes = engine->encode_checkpoint();
    encode_ms.push_back(ns_to_ms(now_ns() - t0));
    t0 = now_ns();
    const auto snap = ckpt::Snapshot::parse(std::move(bytes));
    parse_ms.push_back(ns_to_ms(now_ns() - t0));
    if (!snap.has("smeta")) report.failed(1);
    return static_cast<std::uint64_t>(cohort);
  }, updates);
  const std::size_t rounds = base_ms.size();
  for (std::size_t r = 0; r < rounds; ++r) base_ms[r] -= encode_ms[r] + parse_ms[r];
  const double obs_client_round = report_obs_round_spans(report);
  const std::uint64_t uploaded = obs_counter("fl.bytes_uploaded");
  report.check("fl.bytes_uploaded matches upload_bytes_per_update",
               uploaded == updates * upload_bytes(in.population.factory),
               std::to_string(uploaded) + " B over " + std::to_string(updates) +
                   " updates");
  report.metric("fl.ckpt.encode.ms", mean(encode_ms), "ms",
                "mean of " + std::to_string(encode_ms.size()) + " round boundaries");
  report.metric("ckpt.parse.ms", mean(parse_ms), "ms",
                "mean of " + std::to_string(parse_ms.size()) + " snapshots");

  // The same rounds from the public per-shard and per-client calls.
  obs::set_kernel_metrics(true);
  const std::uint64_t flops0 = obs_counter("kernel.gemm.flops");
  fl::Server server(in.population.factory(), kLearningRate);
  const fl::VirtualPopulation population(in.population);
  const std::uint64_t threshold = fl::cohort_threshold(kCohort, kPopulation);
  SpanLog log;
  std::vector<double> traced_ms, imbalance, per_layer_ms;
  double serial_ms = 0.0, shard_ms = 0.0;
  std::uint64_t accepted = 0, screened = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t t0 = now_ns();
    const Scoped round_span(log, "bench.round", -1, r);
    std::vector<std::uint64_t> cohort;
    log.time("fl.cohort_scan", round_span.id(), r, [&] {
      for (index_t id = 0; id < kPopulation; ++id) {
        if (fl::cohort_member(in.sharded.seed, r, id, threshold)) cohort.push_back(id);
      }
    });
    log.time("fl.begin_round", round_span.id(), r, [&] { server.begin_round(); });
    fl::FedAvgAccumulator acc;
    std::vector<double> client_ms;
    for (std::size_t lo = 0; lo < cohort.size(); lo += kShard) {
      const std::size_t hi = std::min(cohort.size(), lo + kShard);
      const int shard = log.begin("fl.shard", round_span.id(), r);
      std::vector<fl::GlobalModelMessage> msgs;
      log.time("fl.dispatch", shard, r, [&] {
        for (std::size_t i = lo; i < hi; ++i) msgs.push_back(server.dispatch_to(cohort[i]));
      });
      std::vector<fl::ClientUpdateMessage> updates_(msgs.size());
      std::vector<SpanLog> slot_logs(msgs.size());
      runtime::parallel_for(0, msgs.size(), 1, [&](index_t i0, index_t i1) {
        for (index_t i = i0; i < i1; ++i) {
          SpanLog& sl = slot_logs[i];
          const int tid = static_cast<int>(i % 64) + 1;
          const Scoped client(sl, "fl.client_total", -1, r, tid);
          std::unique_ptr<fl::Client> c;
          sl.time("fl.population.make_client", client.id(), r,
                  [&] { c = population.make_client(cohort[lo + i]); }, tid);
          sl.time("fl.client.handle_round", client.id(), r,
                  [&] { updates_[i] = c->handle_round(msgs[i]); }, tid);
          sl.time("fl.defense.apply", client.id(), r,
                  [&] { in.defense->apply(updates_[i]); }, tid);
        }
      });
      for (auto& sl : slot_logs) {
        // Span 0 of a slot log is the client's whole-client span.
        client_ms.push_back(sl.duration_ms(0));
        per_layer_ms.push_back(sl.children_ms(0));
        log.absorb(std::move(sl), shard);
      }
      fl::UpdateScreen screen = server.begin_screen();
      for (const auto& u : updates_) {
        ++screened;
        fl::RejectReason verdict{};
        const int s = log.time("fl.screen", shard, r,
                               [&] { verdict = server.screen_update(u, screen); });
        serial_ms += log.duration_ms(s);
        if (verdict != fl::RejectReason::kAccepted) continue;
        ++accepted;
        const int f = log.time("fl.fold", shard, r, [&] { acc.add(u); });
        serial_ms += log.duration_ms(f);
      }
      log.end(shard);
      shard_ms += log.duration_ms(shard);
    }
    log.time("fl.commit", round_span.id(), r,
             [&] { server.commit_round(acc.average()); });
    imbalance.push_back(*std::max_element(client_ms.begin(), client_ms.end()) /
                        mean(client_ms));
    traced_ms.push_back(ns_to_ms(now_ns() - t0));
  }
  const std::uint64_t flops = obs_counter("kernel.gemm.flops") - flops0;
  obs::set_kernel_metrics(false);

  const bool same = nn::serialize_state(engine->server().global_model()) ==
                    nn::serialize_state(server.global_model());
  report.check("traced rounds end with the engine's model bytes", same,
               std::to_string(rounds) + " rounds, run_round vs per-client calls");
  report.check("every traced update accepted", accepted == screened,
               std::to_string(accepted) + " of " + std::to_string(screened));
  report.attempted(screened);
  report.failed(screened - accepted);

  for (const char* span : {"fl.dispatch", "fl.population.make_client",
                           "fl.client.handle_round", "fl.defense.apply",
                           "fl.screen", "fl.fold", "fl.commit"}) {
    report_span_mean(log, span, report);
  }
  report.metric("fl.shard.serial_share", shard_ms > 0.0 ? serial_ms / shard_ms : 0.0,
                "ratio", "screen+fold " + std::to_string(serial_ms) + " ms / shard " +
                             std::to_string(shard_ms) + " ms");
  report.metric("fl.train.imbalance", median(imbalance), "ratio",
                "slowest / mean client per round, median of " +
                    std::to_string(imbalance.size()) + " rounds");
  report_unaccounted(obs_client_round, mean(per_layer_ms), report);
  report_accepted_ratio(report);
  report_flops_per_update(flops, accepted, "updates", report);
  report_overhead(traced_ms, base_ms, std::to_string(rounds) + " rounds each", report);

  const fl::GlobalModelMessage msg{server.round(),
                                   nn::serialize_state(server.global_model())};
  const auto probe_client = population.make_client(0);
  fl::ClientUpdateMessage update = probe_client->handle_round(msg);
  probe_payload(update.gradients, true, report);
  probe_augment(*in.population.preprocessor, probe_client->last_raw_batch(),
                derive_seed(args.seed, 9), report);

  if (!args.trace_dir.empty()) {
    log.write_chrome_trace(args.trace_dir + "/fl_sharded_population.trace.json");
  }
}

}  // namespace

void run_fl_sharded_population(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_untraced(args, report);
  }
}

}  // namespace perfbench
