#include "fl/simulation.h"

#include <unordered_set>

#include "fl/client_stage.h"
#include "fl/round_fold.h"
#include "nn/model_io.h"
#include "obs/obs.h"

namespace oasis::fl {

Simulation::Simulation(std::unique_ptr<Server> server,
                       std::vector<std::unique_ptr<Client>> clients,
                       SimulationConfig config)
    : server_(std::move(server)),
      clients_(std::move(clients)),
      config_(config),
      rng_(config.seed) {
  OASIS_CHECK(server_ != nullptr);
  OASIS_CHECK_MSG(!clients_.empty(), "simulation needs at least one client");
  std::unordered_set<std::uint64_t> ids;
  for (const auto& c : clients_) {
    OASIS_CHECK(c != nullptr);
    OASIS_CHECK_MSG(ids.insert(c->id()).second,
                    "duplicate client id " << c->id());
  }
  OASIS_CHECK_MSG(config_.clients_per_round <= clients_.size(),
                  "M=" << config_.clients_per_round << " > N="
                       << clients_.size());
  OASIS_CHECK_MSG(config_.max_attempts >= 1, "max_attempts must be >= 1");
  RoundFold::require_quorum_fraction(config_.quorum_fraction);
}

Client& Simulation::client(index_t i) {
  OASIS_CHECK_MSG(i < clients_.size(), "client " << i);
  return *clients_[i];
}

std::vector<std::uint64_t> Simulation::run_round() {
  const obs::ScopedTimer round_span("fl.round");
  static obs::Counter& rounds = obs::counter("fl.rounds");
  static obs::Counter& bytes_down = obs::counter("fl.bytes_dispatched");
  static obs::Counter& dropouts = obs::counter("fl.fault.dropout");
  static obs::Counter& stragglers = obs::counter("fl.fault.straggler");
  static obs::Counter& timeouts = obs::counter("fl.timeouts");
  static obs::Counter& retries = obs::counter("fl.retries");
  static obs::Counter& lost_c = obs::counter("fl.clients_lost");
  static obs::Counter& aborted = obs::counter("fl.rounds_aborted");

  const index_t m = config_.clients_per_round == 0 ? clients_.size()
                                                   : config_.clients_per_round;
  const auto selected = rng_.sample_without_replacement(clients_.size(), m);
  // The fault plan's ticket is the engine's own monotone counter, NOT the
  // protocol round id: an aborted round leaves the server's round id in
  // place, and keying faults on it would replay the identical failure.
  const std::uint64_t ticket = round_tickets_++;
  const bool ft_active =
      fault_plan_.active() || config_.quorum_fraction > 0.0;

  server_->begin_round();
  // Dispatch serially: a (possibly malicious) server may build per-client
  // payloads from mutable state, so only the training itself fans out.
  std::vector<GlobalModelMessage> dispatched;
  std::vector<std::uint64_t> ids;
  dispatched.reserve(m);
  ids.reserve(m);
  {
    const obs::ScopedTimer dispatch_span("dispatch");
    for (const auto idx : selected) {
      dispatched.push_back(server_->dispatch_to(clients_[idx]->id()));
      ids.push_back(clients_[idx]->id());
      bytes_down.add(dispatched.back().model_state.size());
    }
  }

  // Collection: bounded attempts against per-client deadlines in virtual
  // time. Faults are decided serially (pure functions of the plan); the
  // shared client stage fans out only the training and posts deliveries in
  // responder order, so collection order (and therefore aggregation) is
  // identical at any thread count.
  std::vector<index_t> pending(m);
  for (index_t i = 0; i < m; ++i) pending[i] = i;
  std::vector<ClientUpdateMessage> collected;
  collected.reserve(m);
  for (index_t attempt = 0;
       attempt < config_.max_attempts && !pending.empty(); ++attempt) {
    if (attempt > 0) {
      clock_.advance(attempt * config_.retry_backoff_ticks);
      retries.add(pending.size());
    }
    const auto t0 = clock_.now();
    const auto deadline = t0 + config_.deadline_ticks;

    std::vector<ClientSlot> responders;
    std::vector<index_t> responder_sel;  // index into selected/dispatched
    std::vector<index_t> still_pending;
    runtime::VirtualClock::ticks last_arrival = t0;
    for (const auto i : pending) {
      ClientSlot r;
      r.id = ids[i];
      r.fault = fault_plan_.decide(ticket, attempt, ids[i]);
      if (r.fault.kind == FaultKind::kDropout) {
        dropouts.add(1);
        still_pending.push_back(i);
        continue;
      }
      const auto arrival =
          t0 + config_.base_latency_ticks + r.fault.delay_ticks;
      if (r.fault.kind == FaultKind::kStraggler) stragglers.add(1);
      if (arrival > deadline) {
        timeouts.add(1);
        still_pending.push_back(i);
        continue;
      }
      if (arrival > last_arrival) last_arrival = arrival;
      responders.push_back(std::move(r));
      responder_sel.push_back(i);
    }

    run_client_stage(
        responders,
        [&](index_t slot) {
          const index_t sel = responder_sel[slot];
          return clients_[selected[sel]]->handle_round(dispatched[sel],
                                                       defense_.get(), ids);
        },
        fault_plan_, ticket, attempt);
    for (auto& r : responders) {
      if (r.deliveries == 2) collected.push_back(r.update);
      if (r.deliveries > 0) collected.push_back(std::move(r.update));
    }

    pending = std::move(still_pending);
    // Time passes: to the last arrival when everyone replied, else the full
    // deadline we waited out before giving up on the stragglers.
    clock_.advance_to(pending.empty() ? last_arrival : deadline);
  }

  if (!pending.empty()) {
    lost_c.add(pending.size());
    if (config_.fail_on_lost) {
      throw TimeoutError("round " + std::to_string(server_->round()) + ": " +
                         std::to_string(pending.size()) + " of " +
                         std::to_string(m) + " clients lost after " +
                         std::to_string(config_.max_attempts) +
                         " attempts (" + clock_.to_string() + ")");
    }
  }

  const index_t needed = RoundFold::quorum_needed(config_.quorum_fraction, m);

  // Snapshot only when the engine can actually abort or drop updates — the
  // honest path stays copy-free.
  tensor::ByteBuffer snapshot;
  if (ft_active) snapshot = nn::serialize_state(server_->global_model());
  {
    const obs::ScopedTimer agg_span("aggregate");
    try {
      server_->finish_round(collected, needed);
    } catch (const QuorumError&) {
      // finish_round throws before touching the model, but a subclass may
      // have partially applied state — restore the pre-round snapshot so the
      // abort is bit-exact regardless.
      nn::deserialize_state(server_->global_model(), snapshot);
      aborted.add(1);
      throw;
    }
  }
  rounds.add(1);
  obs::gauge("fl.clock_ticks").set(static_cast<double>(clock_.now()));
  return ids;
}

void Simulation::run(index_t rounds,
                     const std::function<void(index_t)>& on_round) {
  for (index_t r = 0; r < rounds; ++r) {
    run_round();
    if (on_round) on_round(r);
  }
}

// ---- Checkpoint / resume ----------------------------------------------------

constexpr ckpt::SnapshotSchema kSchema{"meta", /*obs=*/true};

void Simulation::config_echo(ckpt::ConfigEcho echo) const {
  echo.u64("seed", config_.seed)
      .u64("clients", clients_.size())
      .u64("clients_per_round", config_.clients_per_round)
      .f64("quorum_fraction", static_cast<double>(config_.quorum_fraction));
}

tensor::ByteBuffer Simulation::encode_checkpoint() {
  ckpt::SectionWriter meta;
  meta.u64(server_->round());
  meta.u64(round_tickets_);
  meta.u64(clock_.now());
  config_echo(ckpt::ConfigEcho(meta));
  ckpt::SnapshotBuilder builder =
      ckpt::begin_snapshot(kSchema, std::move(meta), server_->global_model());
  ckpt::SectionWriter rng;
  rng.rng(rng_.state());
  rng.u32(static_cast<std::uint32_t>(clients_.size()));
  for (const auto& c : clients_) {
    rng.u64(c->id());
    rng.rng(c->rng_state());
  }
  builder.add("rng", rng.take());
  return ckpt::finish_snapshot(kSchema, builder);
}

void Simulation::apply_snapshot(const ckpt::Snapshot& snap) {
  ckpt::SnapshotReader reader(kSchema, snap);
  ckpt::SectionReader& meta = reader.meta();
  const std::uint64_t round = meta.u64();
  const std::uint64_t tickets = meta.u64();
  const std::uint64_t clock_ticks = meta.u64();
  config_echo(ckpt::ConfigEcho(meta));
  meta.expect_end();

  // Per client, in client order: u64 id + the rng state (4 words, spare,
  // flag). A different client list or order is a different federation.
  ckpt::SectionReader rng(snap.section("rng"), "rng");
  const common::Rng::State sim_rng = rng.rng();
  bool same_clients =
      rng.count<std::uint32_t>(8 * (8 + 5 * 8 + 1)) == clients_.size();
  std::vector<common::Rng::State> client_rngs;
  for (std::size_t i = 0; same_clients && i < clients_.size(); ++i) {
    same_clients = rng.u64() == clients_[i]->id();
    client_rngs.push_back(rng.rng());
  }
  if (!same_clients) {
    throw CheckpointError(CheckpointError::Reason::kStateMismatch,
                          "snapshot RNG states belong to another client list");
  }
  rng.expect_end();

  reader.apply(server_->global_model(), [&] {
    server_->restore_round(round);
    round_tickets_ = tickets;
    clock_.restore(clock_ticks);
    rng_.set_state(sim_rng);
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      clients_[i]->restore_rng_state(client_rngs[i]);
    }
  });
}

}  // namespace oasis::fl
