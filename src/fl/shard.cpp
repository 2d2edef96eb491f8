#include "fl/shard.h"

#include "fl/client_stage.h"
#include "obs/obs.h"

namespace oasis::fl {

const char* to_string(CohortSampler sampler) {
  switch (sampler) {
    case CohortSampler::kFisherYates: return "fisher_yates";
    case CohortSampler::kHashThreshold: return "hash_threshold";
  }
  return "?";
}

namespace {

constexpr ckpt::SnapshotSchema kSchema{"smeta", /*obs=*/true};

/// Everyone-joins sentinel for cohort_threshold (cohort == population).
constexpr std::uint64_t kFullCohort = ~std::uint64_t{0};

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer (Steele/Lea/Flood) — full avalanche, so adjacent
  // client ids land uniformly against the threshold.
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// The completed-shard bitmap "agg" stores: shards fold in order, so it is
/// always the prefix [0, done) of the round's shards.
std::vector<bool> shard_prefix(std::uint64_t done, std::uint64_t shards) {
  std::vector<bool> bits(shards, false);
  for (std::uint64_t i = 0; i < done && i < shards; ++i) bits[i] = true;
  return bits;
}

}  // namespace

std::uint64_t cohort_mix(std::uint64_t seed, std::uint64_t ticket,
                         std::uint64_t client_id) {
  // Two finalizer passes: the first diffuses (seed, ticket) into a round
  // key, the second diffuses the client id against it. Golden-ratio offsets
  // keep ticket 0 / id 0 away from the fixed point mix64(0) == 0.
  const std::uint64_t round_key =
      mix64(seed + 0x9E3779B97F4A7C15ULL * (ticket + 1));
  return mix64(round_key ^ (client_id + 0x9E3779B97F4A7C15ULL));
}

std::uint64_t cohort_threshold(index_t cohort_size, index_t population) {
  if (population == 0) {
    throw ConfigError("cohort_threshold over an empty population");
  }
  if (cohort_size > population) {
    throw ConfigError("cohort " + std::to_string(cohort_size) +
                      " exceeds population " + std::to_string(population));
  }
  if (cohort_size == population) return kFullCohort;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(cohort_size) << 64) / population);
}

bool cohort_member(std::uint64_t seed, std::uint64_t ticket,
                   std::uint64_t client_id, std::uint64_t threshold) {
  return threshold == kFullCohort ||
         cohort_mix(seed, ticket, client_id) < threshold;
}

ShardedSimulation::ShardedSimulation(std::unique_ptr<Server> server,
                                     VirtualPopulation population,
                                     ShardedConfig config)
    : server_(std::move(server)),
      population_(std::move(population)),
      config_(config),
      rng_(config.seed),
      fold_(*server_) {
  OASIS_CHECK(server_ != nullptr);
  if (config_.shard_size == 0) {
    throw ConfigError("shard_size must be >= 1");
  }
  if (config_.cohort_size > population_.size()) {
    throw ConfigError("cohort " + std::to_string(config_.cohort_size) +
                      " exceeds population " +
                      std::to_string(population_.size()));
  }
  RoundFold::require_quorum_fraction(config_.quorum_fraction);
  RoundFold::require_streaming(*server_);
}

index_t ShardedSimulation::derive_cohort(common::Rng& selection) {
  const index_t target = config_.cohort_size == 0 ? population_.size()
                                                  : config_.cohort_size;
  // The defense mask stage needs the cohort id list; nothing else does.
  const bool collect = defense_ && defense_->requires_cohort();
  defense_cohort_.clear();
  if (config_.sampler == CohortSampler::kFisherYates) {
    cohort_ids_ = selection.sample_without_replacement(population_.size(),
                                                       target);
    if (collect) defense_cohort_.assign(cohort_ids_.begin(), cohort_ids_.end());
    return target;
  }
  // Pre-count the actual (binomial) cohort so quorum math and the shard
  // count are fixed before the first shard runs — ~ns per hash, and the
  // scan keeps no per-client state beyond the optional mask list.
  threshold_ = cohort_threshold(target, population_.size());
  index_t count = 0;
  for (index_t id = 0; id < population_.size(); ++id) {
    if (cohort_member(config_.seed, ticket_, id, threshold_)) {
      ++count;
      if (collect) defense_cohort_.push_back(id);
    }
  }
  return count;
}

void ShardedSimulation::begin_round_state() {
  rng_at_round_start_ = rng_.state();
  ticket_ = round_tickets_++;
  cohort_size_ = derive_cohort(rng_);
  num_shards_ = (cohort_size_ + config_.shard_size - 1) / config_.shard_size;
  ckpt::Generation::require_room(num_shards_, "shards (raise shard_size)");
  // Everything else starts from clear_round_state()'s zeros.
  mid_round_ = true;
  server_->begin_round();
}

void ShardedSimulation::collect_shard_members(std::vector<std::uint64_t>& out) {
  out.clear();
  if (config_.sampler == CohortSampler::kFisherYates) {
    const index_t lo = next_shard_ * config_.shard_size;
    const index_t hi = lo + config_.shard_size < cohort_ids_.size()
                           ? lo + config_.shard_size
                           : cohort_ids_.size();
    for (index_t i = lo; i < hi; ++i) out.push_back(cohort_ids_[i]);
  } else {
    while (out.size() < config_.shard_size &&
           scan_pos_ < population_.size()) {
      if (cohort_member(config_.seed, ticket_, scan_pos_, threshold_)) {
        out.push_back(scan_pos_);
      }
      ++scan_pos_;
    }
  }
}

void ShardedSimulation::process_shard() {
  static obs::Counter& bytes_down = obs::counter("fl.bytes_dispatched");
  static obs::Counter& dropouts = obs::counter("fl.fault.dropout");
  static obs::Counter& stragglers = obs::counter("fl.fault.straggler");
  static obs::Counter& lost_c = obs::counter("fl.clients_lost");
  static obs::Counter& shards_c = obs::counter("fl.shard.shards");
  static obs::Counter& shard_clients = obs::counter("fl.shard.clients");

  std::vector<std::uint64_t> members;
  collect_shard_members(members);

  // Serial dispatch + fault decisions: faults are pure functions of the
  // plan, but the (possibly stateful) server builds the payloads. Every
  // member is dispatched, as in the materialized engine; a dropout is then
  // decided before training, so a dropped client never trains — matching
  // that engine's counters.
  std::vector<ClientSlot> slots;
  std::vector<GlobalModelMessage> dispatched;
  slots.reserve(members.size());
  dispatched.reserve(members.size());
  index_t dropped = 0;
  {
    const obs::ScopedTimer dispatch_span("dispatch");
    for (const auto id : members) {
      GlobalModelMessage msg = server_->dispatch_to(id);
      bytes_down.add(msg.model_state.size());
      ClientSlot s;
      s.id = id;
      s.fault = fault_plan_.decide(ticket_, /*attempt=*/0, id);
      if (s.fault.kind == FaultKind::kDropout) {
        // Single-attempt semantics: a dropout is immediately lost.
        dropouts.add(1);
        ++dropped;
        ++clients_done_;
        continue;
      }
      if (s.fault.kind == FaultKind::kStraggler) stragglers.add(1);
      dispatched.push_back(std::move(msg));
      slots.push_back(std::move(s));
    }
  }
  if (dropped > 0) lost_c.add(dropped);

  // Clients are materialized lazily inside the parallel region (make_client
  // is pure, so construction order cannot matter) and die with their chunk.
  run_client_stage(
      slots,
      [&](index_t i) {
        return population_.make_client(slots[i].id)->handle_round(
            dispatched[i], defense_.get(), defense_cohort_);
      },
      fault_plan_, ticket_, /*attempt=*/0);

  // Serial fold in cohort order — the determinism linchpin (see shard.h).
  // One screen per shard suffices: cohort member ids are distinct across
  // shards by construction (a permutation sample or an ascending id scan),
  // so the only reachable duplicates are kDuplicate faults, delivered
  // back to back within this shard.
  UpdateScreen screen = server_->begin_screen();
  {
    const obs::ScopedTimer agg_span("aggregate");
    for (const auto& s : slots) {
      // A refusal posts nothing; the client still counts as disposed.
      for (index_t k = 0; k < s.deliveries; ++k) fold_.offer(s.update, screen);
      ++clients_done_;
      if (client_hook_) client_hook_(s.id, clients_done_);
    }
  }

  ++next_shard_;
  shards_c.add(1);
  shard_clients.add(members.size());
  if (shard_hook_) {
    ShardProgress progress;
    progress.round = server_->round();
    progress.ticket = ticket_;
    progress.shard = next_shard_ - 1;
    progress.num_shards = num_shards_;
    progress.cohort_size = cohort_size_;
    progress.clients_done = clients_done_;
    shard_hook_(progress);
  }
}

void ShardedSimulation::clear_round_state() {
  mid_round_ = false;
  cohort_ids_.clear();
  cohort_ids_.shrink_to_fit();
  defense_cohort_.clear();
  defense_cohort_.shrink_to_fit();
  fold_.reset();
  cohort_size_ = 0;
  num_shards_ = 0;
  next_shard_ = 0;
  scan_pos_ = 0;
  clients_done_ = 0;
  threshold_ = 0;
}

index_t ShardedSimulation::run_round() {
  const obs::ScopedTimer round_span("fl.round");
  static obs::Counter& rounds = obs::counter("fl.rounds");
  static obs::Counter& shard_rounds = obs::counter("fl.shard.rounds");
  static obs::Counter& aborted = obs::counter("fl.rounds_aborted");

  RoundFold::require_streaming(*server_);
  if (!mid_round_) begin_round_state();
  while (next_shard_ < num_shards_) process_shard();

  const index_t cohort = cohort_size_;
  try {
    fold_.commit(RoundFold::quorum_needed(config_.quorum_fraction, cohort));
  } catch (const QuorumError&) {
    // The aggregate only ever lived in the fold, so an abort needs no model
    // rollback — dropping the round state IS the rollback.
    clear_round_state();
    aborted.add(1);
    throw;
  }
  clear_round_state();
  rounds.add(1);
  shard_rounds.add(1);
  obs::gauge("fl.shard.last_cohort").set(static_cast<double>(cohort));
  return cohort;
}

void ShardedSimulation::run(index_t rounds,
                            const std::function<void(index_t)>& on_round) {
  for (index_t r = 0; r < rounds; ++r) {
    run_round();
    if (on_round) on_round(r);
  }
}

// ---- Checkpoint / resume ----------------------------------------------------

void ShardedSimulation::config_echo(ckpt::ConfigEcho echo) const {
  echo.u64("population_seed", population_.config().seed)
      .u64("population", population_.size())
      .u64("seed", config_.seed)
      .u64("cohort_size", config_.cohort_size)
      .u64("shard_size", config_.shard_size)
      .u8("sampler", static_cast<std::uint8_t>(config_.sampler))
      .f64("quorum_fraction", static_cast<double>(config_.quorum_fraction))
      // The fold is always example-weighted; a 0 here is a foreign writer.
      .u8("weight_by_examples", 1);
}

std::uint64_t ShardedSimulation::checkpoint_generation() const {
  return mid_round_ ? ckpt::Generation::mid_round(ticket_, next_shard_)
                    : ckpt::Generation::at_rest(round_tickets_);
}

tensor::ByteBuffer ShardedSimulation::encode_checkpoint() {
  ckpt::SectionWriter meta;
  meta.u64(server_->round());
  meta.u64(round_tickets_);
  config_echo(ckpt::ConfigEcho(meta));
  meta.u8(mid_round_ ? 1 : 0);
  if (mid_round_) {
    meta.u64(ticket_);
    meta.u64(cohort_size_);
    meta.u64(num_shards_);
    meta.u64(next_shard_);
    meta.u64(scan_pos_);
    meta.u64(clients_done_);
    meta.u64(fold_.accepted());
    meta.u64(fold_.rejected());
  }
  ckpt::SnapshotBuilder builder =
      ckpt::begin_snapshot(kSchema, std::move(meta), server_->global_model());
  ckpt::SectionWriter rng;
  rng.rng(rng_.state());
  if (mid_round_) rng.rng(rng_at_round_start_);
  builder.add("srng", rng.take());
  if (mid_round_) {
    ckpt::SectionWriter agg;
    agg.bitset(shard_prefix(next_shard_, num_shards_));
    fold_.encode(agg);
    builder.add("agg", agg.take());
  }
  return ckpt::finish_snapshot(kSchema, builder);
}

void ShardedSimulation::apply_snapshot(const ckpt::Snapshot& snap) {
  using Reason = CheckpointError::Reason;

  ckpt::SnapshotReader reader(kSchema, snap);
  ckpt::SectionReader& meta = reader.meta();
  const std::uint64_t round = meta.u64();
  const std::uint64_t tickets = meta.u64();
  config_echo(ckpt::ConfigEcho(meta));
  const bool mid = meta.u8() != 0;
  std::uint64_t ticket = 0, cohort = 0, num_shards = 0, next_shard = 0;
  std::uint64_t scan_pos = 0, clients_done = 0, rejected = 0;
  if (mid) {
    ticket = meta.u64();
    cohort = meta.u64();
    num_shards = meta.u64();
    next_shard = meta.u64();
    scan_pos = meta.u64();
    clients_done = meta.u64();
    meta.u64();  // accepted: the fold's own count, restored from "agg"
    rejected = meta.u64();
  }
  meta.expect_end();
  if (mid && (next_shard > num_shards || ticket >= tickets ||
              scan_pos > population_.size())) {
    throw CheckpointError(Reason::kStateMismatch,
                          "mid-round snapshot progress is inconsistent "
                          "(shard " +
                              std::to_string(next_shard) + " of " +
                              std::to_string(num_shards) + ")");
  }

  ckpt::SectionReader rng(snap.section("srng"), "srng");
  const common::Rng::State rng_now = rng.rng();
  common::Rng::State rng_start{};
  if (mid) rng_start = rng.rng();
  rng.expect_end();

  RoundFold::Saved folded;
  if (mid) {
    ckpt::SectionReader agg(snap.section("agg"), "agg");
    const std::vector<bool> done_bits = agg.bitset();
    folded = RoundFold::decode(agg);
    agg.expect_end();
    if (done_bits.size() != num_shards ||
        done_bits != shard_prefix(next_shard, num_shards)) {
      throw CheckpointError(Reason::kStateMismatch,
                            "completed-shard bitmap is not the prefix "
                            "next_shard implies");
    }
  }

  reader.apply(server_->global_model(), [&] {
    server_->restore_round(round);
    round_tickets_ = tickets;
    rng_.set_state(rng_now);
    clear_round_state();
    if (!mid) return;
    ticket_ = ticket;
    rng_at_round_start_ = rng_start;
    cohort_size_ = cohort;
    num_shards_ = num_shards;
    next_shard_ = next_shard;
    scan_pos_ = scan_pos;
    clients_done_ = clients_done;
    fold_.restore(std::move(folded), rejected);
    // Re-derive the cohort by replaying the selection from the round-start
    // RNG state; rng_ itself already holds the post-selection position.
    common::Rng replay(0);
    replay.set_state(rng_at_round_start_);
    derive_cohort(replay);
    // Rebuild the dispatch payload for the round in flight (honest-server
    // assumption: begin_round is idempotent given unchanged model state).
    server_->begin_round();
    mid_round_ = true;
  });
  if (mid) obs::counter("ckpt.restore.shard_midround").add(1);
}

}  // namespace oasis::fl
