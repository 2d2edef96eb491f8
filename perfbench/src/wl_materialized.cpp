// fl_materialized_oasis — fl_training's default federation on fl::Simulation.
//
// 8 clients, 4 per round, MiniConvNet width 8 on 24×24×3 synthetic
// Imagenette stand-ins, batch 16, every client defending with OASIS major
// rotation (each batch grows 4×), FedAvg, no faults, closed loop (a client
// trains only after it receives the round's model). The paper's defended
// training setting: conv GEMMs, im2col/col2im and the rotation warps do most
// of the work.
#include <algorithm>
#include <memory>

#include "fl/simulation.h"
#include "metrics/accuracy.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "probes.h"
#include "runtime/parallel.h"
#include "traced_client.h"
#include "workloads.h"

namespace perfbench {

using namespace oasis;

namespace {

constexpr index_t kClients = 8;
constexpr index_t kPerRound = 4;
constexpr index_t kBatch = 16;
constexpr index_t kExtent = 24;
constexpr real kLearningRate = 0.15;
constexpr std::size_t kWarmupRounds = 2;
/// test_accuracy is read after exactly this many rounds, so it does not
/// depend on how many rounds the host manages in the timed window.
constexpr std::size_t kAccuracyRound = 200;

using Inputs = FederationInputs;

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  return make_federation_inputs(
      seed, {kClients, kExtent, /*classes=*/10, /*train_per_class=*/24, /*test_per_class=*/40},
      [](const nn::ImageSpec& spec, index_t classes, common::Rng& rng) {
        return nn::make_mini_convnet(spec, classes, rng, 8);
      });
}

/// Server that tallies finish_round's verdicts, so the untraced run can
/// check that every update was accepted without reading obs counters.
class TallyServer : public fl::Server {
 public:
  using fl::Server::Server;
  using fl::Server::finish_round;
  fl::RoundOutcome finish_round(std::span<const fl::ClientUpdateMessage> updates,
                                index_t min_valid) override {
    fl::RoundOutcome outcome = fl::Server::finish_round(updates, min_valid);
    accepted += outcome.accepted;
    return outcome;
  }
  std::uint64_t accepted = 0;
};

struct Engine {
  std::unique_ptr<fl::Simulation> sim;
  TallyServer* server = nullptr;
};

Engine make_engine(const Inputs& in) {
  auto server = std::make_unique<TallyServer>(in.factory(), kLearningRate);
  Engine e;
  e.server = server.get();
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (index_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        i, in.shards[i], in.factory, kBatch, in.oasis,
        common::Rng(in.client_seed + i)));
  }
  e.sim = std::make_unique<fl::Simulation>(
      std::move(server), std::move(clients),
      fl::SimulationConfig{kPerRound, in.selection_seed});
  return e;
}

/// One engine round; returns accepted updates and counts missing ones.
std::uint64_t engine_round(Engine& e, Report& report) {
  const std::uint64_t before = e.server->accepted;
  e.sim->run_round();
  const std::uint64_t got = e.server->accepted - before;
  report.attempted(kPerRound);
  if (got < kPerRound) report.failed(kPerRound - got);
  return got;
}

void run_untraced(const Args& args, Report& report) {
  EndToEnd e2e;
  std::unique_ptr<Inputs> in;
  Engine engine;
  std::vector<std::uint64_t> digests;
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = now_ns();
    in = make_inputs(args.seed);
    engine = make_engine(*in);
    for (std::size_t w = 0; w < kWarmupRounds; ++w) engine_round(engine, report);
    e2e.setup_s.push_back(ns_to_ms(now_ns() - t0) / 1e3);
    digests.push_back(
        digest(nn::serialize_state(engine.sim->server().global_model())));
  }
  report.check("model digest identical across set-ups",
               std::all_of(digests.begin(), digests.end(),
                           [&](std::uint64_t d) { return d == digests[0]; }),
               std::to_string(digests.size()) + " set-ups, " +
                   std::to_string(kWarmupRounds) + " rounds each");

  timed_rounds_with_accuracy(
      args.seconds, kWarmupRounds, kAccuracyRound, [&] { return engine_round(engine, report); },
      [&] { return metrics::accuracy(engine.sim->server().global_model(), in->dataset.test); }, e2e);
  e2e.accuracy_note += ", " + std::to_string(in->dataset.test.size()) + " test images";
  const std::uint64_t expected = e2e.round_ms.size() * kPerRound;
  report.check("every update accepted", e2e.updates == expected,
               std::to_string(e2e.updates) + " of " + std::to_string(expected));
  e2e.upload_bytes_per_update = static_cast<double>(upload_bytes(in->factory));
  e2e.psnr_note = "not applicable: no attack runs in this workload";
  emit_end_to_end(e2e, report);
}

void run_traced(const Args& args, Report& report) {
  const auto in = make_inputs(args.seed);
  Engine engine = make_engine(*in);

  // Untraced baseline rounds on the engine; obs spans come from these.
  obs::set_kernel_metrics(false);
  obs::Registry::global().reset();
  std::uint64_t updates = 0;
  const auto base_ms = timed_rounds(args.seconds * 0.35, 6, [&] {
    return engine_round(engine, report);
  }, updates);
  const std::size_t rounds = base_ms.size();
  const double obs_client_round = report_obs_round_spans(report);
  const std::uint64_t uploaded = obs_counter("fl.bytes_uploaded");
  report.check("fl.bytes_uploaded matches upload_bytes_per_update",
               uploaded == updates * upload_bytes(in->factory),
               std::to_string(uploaded) + " B over " + std::to_string(updates) +
                   " updates");

  // The same rounds from the public per-layer calls, on a replica
  // federation built from the same seed.
  obs::set_kernel_metrics(true);
  const std::uint64_t flops0 = obs_counter("kernel.gemm.flops");
  fl::Server server(in->factory(), kLearningRate);
  std::vector<std::unique_ptr<TracedClient>> clients;
  for (index_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<TracedClient>(
        i, in->shards[i], in->factory, kBatch, in->oasis, in->client_seed + i));
  }
  common::Rng selection(in->selection_seed);
  SpanLog log;
  std::vector<double> traced_ms, imbalance, per_layer_ms;
  std::uint64_t accepted = 0, screened = 0;
  index_t raw_batch = 0, training_batch = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t t0 = now_ns();
    const Scoped round_span(log, "bench.round", -1, r);
    const auto selected = selection.sample_without_replacement(kClients, kPerRound);
    std::vector<fl::GlobalModelMessage> dispatched;
    log.time("fl.dispatch", round_span.id(), r, [&] {
      server.begin_round();
      for (const auto idx : selected) dispatched.push_back(server.dispatch_to(idx));
    });
    std::vector<fl::ClientUpdateMessage> collected(selected.size());
    std::vector<SpanLog> slot_logs(selected.size());
    runtime::parallel_for(0, selected.size(), 1, [&](index_t i0, index_t i1) {
      for (index_t i = i0; i < i1; ++i) {
        collected[i] = clients[selected[i]]->round(dispatched[i], slot_logs[i], -1,
                                                   static_cast<int>(i) + 1);
      }
    });
    std::vector<double> client_ms;
    for (auto& slot : slot_logs) {
      // Span 0 of a slot log is the client's handle_round span.
      client_ms.push_back(slot.duration_ms(0));
      per_layer_ms.push_back(slot.children_ms(0));
      log.absorb(std::move(slot), round_span.id());
    }
    imbalance.push_back(*std::max_element(client_ms.begin(), client_ms.end()) /
                        mean(client_ms));
    fl::UpdateScreen screen = server.begin_screen();
    fl::FedAvgAccumulator acc;
    std::vector<fl::RejectReason> verdicts;
    for (const auto& u : collected) {
      log.time("fl.screen", round_span.id(), r,
               [&] { verdicts.push_back(server.screen_update(u, screen)); });
    }
    for (std::size_t i = 0; i < collected.size(); ++i) {
      ++screened;
      if (verdicts[i] != fl::RejectReason::kAccepted) continue;
      ++accepted;
      log.time("fl.fold", round_span.id(), r, [&] { acc.add(collected[i]); });
    }
    log.time("fl.commit", round_span.id(), r,
             [&] { server.commit_round(acc.average()); });
    raw_batch = clients[selected[0]]->last_raw_batch().size();
    training_batch = clients[selected[0]]->last_training_batch();
    traced_ms.push_back(ns_to_ms(now_ns() - t0));
  }
  const std::uint64_t flops = obs_counter("kernel.gemm.flops") - flops0;
  obs::set_kernel_metrics(false);

  const bool same = nn::serialize_state(engine.sim->server().global_model()) ==
                    nn::serialize_state(server.global_model());
  report.check("traced rounds end with the engine's model bytes", same,
               std::to_string(rounds) + " rounds, run_round vs per-layer calls");
  report.check("every traced update accepted", accepted == screened,
               std::to_string(accepted) + " of " + std::to_string(screened));
  report.attempted(screened);
  report.failed(screened - accepted);

  for (const char* span : {"fl.dispatch", "fl.client.load_state",
                           "fl.client.handle_round", "fl.screen", "fl.fold",
                           "fl.commit", "augment.oasis", "tensor.serialize",
                           "nn.loss"}) {
    report_span_mean(log, span, report);
  }
  auto model = in->factory();
  for (index_t i = 0; i < model->size(); ++i) {
    const std::string tag = layer_tag(i, model->at(i).name());
    report_span_mean(log, "nn.fwd." + tag, report);
    report_span_mean(log, "nn.bwd." + tag, report);
  }
  report.metric("augment.expansion",
                static_cast<double>(training_batch) / static_cast<double>(raw_batch),
                "ratio", std::to_string(training_batch) + " images out / " +
                             std::to_string(raw_batch) + " in");
  report.metric("fl.train.imbalance", median(imbalance), "ratio",
                "slowest / mean client per round, median of " +
                    std::to_string(imbalance.size()) + " rounds");
  report_unaccounted(obs_client_round, mean(per_layer_ms), report);
  report_accepted_ratio(report);
  report_flops_per_update(flops, accepted, "updates", report);
  report_overhead(traced_ms, base_ms, std::to_string(rounds) + " rounds each", report);

  const tensor::Shape batch_shape{static_cast<index_t>(training_batch), 3, kExtent, kExtent};
  probe_gemm(gemm_shapes(*model, batch_shape, {}), derive_seed(args.seed, 9), report);
  probe_im2col(*model, batch_shape, report);
  fl::GlobalModelMessage msg{server.round(), nn::serialize_state(server.global_model())};
  SpanLog scratch;
  TracedClient probe(0, in->shards[0], in->factory, kBatch, in->oasis, in->client_seed);
  probe_payload(probe.round(msg, scratch, -1, 0).gradients, false, report);

  if (!args.trace_dir.empty()) {
    log.write_chrome_trace(args.trace_dir + "/fl_materialized_oasis.trace.json");
  }
}

}  // namespace

void run_fl_materialized_oasis(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_untraced(args, report);
  }
}

}  // namespace perfbench
