// net_loopback_linear — large payloads, little compute, over real sockets.
//
// net::FlServer and 4 net::FlClients on loopback TCP, stepped round-robin
// in one thread. All 4 clients join every round (selection_seed set, so the
// fold order replays fl::Simulation's). Linear model on 32×32×3 with 100
// classes (~2.4 MB updates), OASIS major rotation, and the client
// model-audit gate armed. No checkpoint directory, so fsync stays out.
// Frame encode/decode, socket IO, CRC, scan and the fold frontier do most of
// the work; it is the only workload that runs net and the audit screens.
#include <algorithm>
#include <memory>

#include "attack/audit.h"
#include "fl/simulation.h"
#include "metrics/accuracy.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

using namespace oasis;

namespace {

constexpr index_t kClients = 4;
constexpr index_t kBatch = 16;
constexpr index_t kExtent = 32;
constexpr index_t kClasses = 100;
/// 0.15 (fl_training's rate for the MiniConvNet) makes this 100-class
/// linear model oscillate; 0.02 converges smoothly.
constexpr real kLearningRate = 0.02;
constexpr std::uint64_t kWarmupRounds = 2;
constexpr std::uint64_t kAccuracyRound = 100;
/// Upper bound on served rounds; runs stop at a round boundary long before.
constexpr std::uint64_t kMaxRounds = 1'000'000;

using Inputs = FederationInputs;

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  return make_federation_inputs(
      seed, {kClients, kExtent, kClasses, /*train_per_class=*/16, /*test_per_class=*/20},
      [](const nn::ImageSpec& spec, index_t classes, common::Rng& rng) {
        return nn::make_linear_model(spec, classes, rng);
      });
}

std::unique_ptr<fl::Client> make_client(const Inputs& in, index_t i) {
  auto c = std::make_unique<fl::Client>(i, in.shards[i], in.factory, kBatch,
                                        in.oasis,
                                        common::Rng(in.client_seed + i));
  c->set_model_auditor(attack::make_model_auditor());
  return c;
}

/// Server, clients and sockets of one loopback federation. Members are
/// declared in dependency order so destruction closes clients first.
struct Federation {
  std::unique_ptr<fl::Server> core;
  std::unique_ptr<net::FlServer> server;
  std::vector<std::unique_ptr<fl::Client>> cores;
  std::vector<std::unique_ptr<net::FlClient>> clients;

  /// One round-robin pass: the server, then every client, each step(0).
  void step_all() {
    server->step(0);
    for (auto& c : clients) c->step(0);
  }
  /// Steps until the server commits one more round; returns the uploads
  /// the clients made meanwhile.
  std::uint64_t round() {
    const std::uint64_t served = server->rounds_served();
    const std::uint64_t sent = uploads();
    while (server->rounds_served() == served) step_all();
    return uploads() - sent;
  }
  [[nodiscard]] std::uint64_t uploads() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->updates_sent();
    return n;
  }
  [[nodiscard]] std::uint64_t refused() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->rounds_refused();
    return n;
  }
};

std::unique_ptr<Federation> make_federation(const Inputs& in) {
  auto f = std::make_unique<Federation>();
  f->core = std::make_unique<fl::Server>(in.factory(), kLearningRate);
  net::FlServerConfig cfg;
  cfg.cohort_size = kClients;
  cfg.rounds = kMaxRounds;
  cfg.selection_seed = in.selection_seed;
  // Generous deadlines: a slow host must not turn honest clients into
  // stragglers.
  cfg.round_timeout_ms = 120'000;
  cfg.idle_timeout_ms = 120'000;
  f->server = std::make_unique<net::FlServer>(*f->core, cfg);
  f->server->listen("127.0.0.1", 0);
  for (index_t i = 0; i < kClients; ++i) {
    f->cores.push_back(make_client(in, i));
    net::FlClientConfig ccfg;
    ccfg.client_id = i;
    ccfg.io_timeout_ms = 120'000;
    f->clients.push_back(std::make_unique<net::FlClient>(*f->cores[i], ccfg));
    f->clients.back()->connect("127.0.0.1", f->server->port());
  }
  return f;
}

/// fl::Simulation over the same federation: the byte-exact reference.
tensor::ByteBuffer simulate(const Inputs& in, std::uint64_t rounds) {
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (index_t i = 0; i < kClients; ++i) clients.push_back(make_client(in, i));
  fl::Simulation sim(std::make_unique<fl::Server>(in.factory(), kLearningRate),
                     std::move(clients),
                     fl::SimulationConfig{/*clients_per_round=*/0, in.selection_seed});
  sim.run(rounds);
  return nn::serialize_state(sim.server().global_model());
}

void run_untraced(const Args& args, Report& report) {
  EndToEnd e2e;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Federation> fed;
  std::vector<tensor::ByteBuffer> served;
  for (int k = 0; k < kSetups; ++k) {
    fed.reset();  // the previous set-up's teardown is not set-up time
    const std::uint64_t t0 = now_ns();
    in = make_inputs(args.seed);
    fed = make_federation(*in);
    for (std::uint64_t w = 0; w < kWarmupRounds; ++w) fed->round();
    e2e.setup_s.push_back(ns_to_ms(now_ns() - t0) / 1e3);
    served.push_back(nn::serialize_state(fed->core->global_model()));
  }
  const tensor::ByteBuffer want = simulate(*in, kWarmupRounds);
  report.check("served model byte-identical to fl::Simulation",
               std::all_of(served.begin(), served.end(),
                           [&](const tensor::ByteBuffer& b) { return b == want; }),
               std::to_string(served.size()) + " set-ups, " +
                   std::to_string(kWarmupRounds) + " rounds each");

  const std::uint64_t uploads0 = fed->uploads();
  timed_rounds_with_accuracy(
      args.seconds, kWarmupRounds, kAccuracyRound, [&] { return fed->round(); },
      [&] { return metrics::accuracy(fed->core->global_model(), in->dataset.test); }, e2e);
  e2e.accuracy_note += ", " + std::to_string(in->dataset.test.size()) + " test images";

  const std::uint64_t expected = e2e.round_ms.size() * kClients;
  report.attempted(expected);
  report.failed(expected - std::min(expected, fed->uploads() - uploads0));
  report.check("every client uploads every round",
               fed->uploads() - uploads0 == expected,
               std::to_string(fed->uploads() - uploads0) + " of " +
                   std::to_string(expected));
  report.check("audit gate refuses zero honest models", fed->refused() == 0,
               std::to_string(fed->refused()) + " refusals");
  e2e.upload_bytes_per_update = static_cast<double>(upload_bytes(in->factory));
  e2e.psnr_note = "not applicable: no attack runs in this workload";
  emit_end_to_end(e2e, report);
}

tensor::ByteBuffer frame_body(const tensor::ByteBuffer& frame) {
  return tensor::ByteBuffer(frame.begin() + net::kFrameHeaderBytes, frame.end());
}

void run_traced(const Args& args, Report& report) {
  const auto in = make_inputs(args.seed);
  auto fed = make_federation(*in);
  for (std::uint64_t w = 0; w < kWarmupRounds; ++w) fed->round();

  // Untraced baseline rounds.
  obs::set_kernel_metrics(false);
  obs::Registry::global().reset();
  std::uint64_t uploads = 0;
  const auto base_ms =
      timed_rounds(args.seconds * 0.35, 6, [&] { return fed->round(); }, uploads);
  const std::size_t rounds = base_ms.size();
  (void)report_obs_round_spans(report);

  // Traced rounds: the same public step() calls, each one a span.
  obs::set_kernel_metrics(true);
  const std::uint64_t flops0 = obs_counter("kernel.gemm.flops");
  const std::uint64_t bytes0 = obs_counter("net.bytes.sent");
  const std::uint64_t frames0 = obs_counter("net.frames.sent");
  const std::size_t lat0 = fed->server->round_latencies_ms().size();
  const std::uint64_t uploads0 = fed->uploads();
  SpanLog log;
  std::vector<double> traced_ms, server_ms, client_ms, train_ms;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t t0 = now_ns();
    const Scoped round_span(log, "bench.round", -1, r);
    const std::uint64_t served = fed->server->rounds_served();
    double s_ms = 0.0, c_ms = 0.0, t_ms = 0.0;
    while (fed->server->rounds_served() == served) {
      s_ms += log.duration_ms(log.time("net.server.step", round_span.id(), r,
                                       [&] { fed->server->step(0); }));
      for (std::size_t i = 0; i < fed->clients.size(); ++i) {
        auto& c = *fed->clients[i];
        const std::uint64_t models = c.models_received();
        const double d = log.duration_ms(log.time(
            "net.client.step", round_span.id(), r, [&] { c.step(0); },
            static_cast<int>(i) + 1));
        c_ms += d;
        if (c.models_received() != models) t_ms += d;
      }
    }
    server_ms.push_back(s_ms);
    client_ms.push_back(c_ms);
    train_ms.push_back(t_ms);
    traced_ms.push_back(ns_to_ms(now_ns() - t0));
  }
  const std::uint64_t flops = obs_counter("kernel.gemm.flops") - flops0;
  obs::set_kernel_metrics(false);
  const std::uint64_t traced_uploads = fed->uploads() - uploads0;

  const auto& lat = fed->server->round_latencies_ms();
  std::vector<double> traced_lat(lat.begin() + static_cast<std::ptrdiff_t>(lat0),
                                 lat.end());
  std::vector<double> wait;
  for (std::size_t i = 0; i < traced_lat.size() && i < train_ms.size(); ++i) {
    wait.push_back(traced_lat[i] - train_ms[i]);
  }

  const std::uint64_t total_rounds = kWarmupRounds + 2 * rounds;
  const bool same = nn::serialize_state(fed->core->global_model()) ==
                    simulate(*in, total_rounds);
  report.check("traced rounds end with fl::Simulation's model bytes", same,
               std::to_string(total_rounds) + " rounds");
  const std::uint64_t expected = kClients * rounds;
  report.attempted(expected);
  report.failed(expected - std::min(expected, traced_uploads));
  const std::uint64_t acc_c = obs_counter("fl.validate.accepted");
  const std::uint64_t rej_c = obs_counter("fl.validate.rejected");
  report.check("every traced update accepted", rej_c == 0 && acc_c > 0,
               std::to_string(acc_c) + " accepted, " + std::to_string(rej_c) +
                   " rejected");
  report.check("audit gate refuses zero honest models", fed->refused() == 0,
               std::to_string(fed->refused()) + " refusals");

  const std::string n = " n=" + std::to_string(rounds) + " rounds";
  report.metric("net.server.step_ms_per_round", median(server_ms), "ms", "median," + n);
  report.metric("net.client.step_ms_per_round", median(client_ms), "ms",
                "median, all clients," + n);
  report.metric("net.round.latency_ms_p50", median(traced_lat), "ms",
                "FlServer::round_latencies_ms, n=" + std::to_string(traced_lat.size()));
  report.metric("net.round.wait_ms", median(wait), "ms",
                "latency minus client training steps, median," + n);
  report.metric("net.bytes_per_round",
                static_cast<double>(obs_counter("net.bytes.sent") - bytes0) /
                    static_cast<double>(rounds),
                "B", "net.bytes.sent, server and clients," + n);
  report.metric("net.frames_per_round",
                static_cast<double>(obs_counter("net.frames.sent") - frames0) /
                    static_cast<double>(rounds),
                "count", "net.frames.sent, server and clients," + n);
  report_accepted_ratio(report);
  const std::uint64_t inspected = obs_counter("fl.audit.inspected");
  const std::uint64_t refused = obs_counter("fl.audit.refused");
  report.metric("attack.audit.refused_ratio",
                inspected > 0 ? static_cast<double>(refused) / static_cast<double>(inspected) : 0.0,
                "ratio", std::to_string(refused) + " refused / " +
                             std::to_string(inspected) + " inspected");
  report_flops_per_update(flops, traced_uploads, "updates", report);
  report_overhead(traced_ms, base_ms, std::to_string(rounds) + " rounds each", report);

  // Frame codec, payload and audit probes on this round's real messages.
  const fl::GlobalModelMessage msg{fed->core->round(),
                                   nn::serialize_state(fed->core->global_model())};
  auto probe = make_client(*in, 0);
  const fl::ClientUpdateMessage update = probe->handle_round(msg);
  std::vector<double> enc_u, dec_u, enc_m, audit;
  auto replica = in->factory();
  const fl::ModelAuditor auditor = attack::make_model_auditor();
  for (int i = 0; i < 15; ++i) {
    std::uint64_t t0 = now_ns();
    const auto uf = net::encode_update(update);
    enc_u.push_back(ns_to_ms(now_ns() - t0));
    const auto body = frame_body(uf);
    t0 = now_ns();
    const auto back = net::decode_update(body);
    dec_u.push_back(ns_to_ms(now_ns() - t0));
    if (back.gradients != update.gradients) report.failed(1);
    t0 = now_ns();
    const auto mf = net::encode_model(msg);
    enc_m.push_back(ns_to_ms(now_ns() - t0));
    nn::deserialize_state(*replica, msg.model_state);
    t0 = now_ns();
    auditor(*replica, msg.round);
    audit.push_back(ns_to_ms(now_ns() - t0));
  }
  report.metric("net.frame.encode_update.ms", median(enc_u), "ms", "median of 15");
  report.metric("net.frame.decode_update.ms", median(dec_u), "ms", "median of 15");
  report.metric("net.frame.encode_model.ms", median(enc_m), "ms", "median of 15");
  report.metric("attack.audit.ms", median(audit), "ms", "median of 15 audits");
  probe_payload(update.gradients, true, report);
  probe_augment(*in->oasis, probe->last_raw_batch(), derive_seed(args.seed, 9), report);

  if (!args.trace_dir.empty()) {
    log.write_chrome_trace(args.trace_dir + "/net_loopback_linear.trace.json");
  }
}

}  // namespace

void run_net_loopback_linear(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_untraced(args, report);
  }
}

}  // namespace perfbench
