// The snapshot policy every round engine shares (DESIGN.md §5g):
// fl::Simulation, fl::ShardedSimulation, net::FlServer and the core trainer
// all encode and restore through it. A snapshot is laid out as
//   <meta>  progress fields, the ConfigEcho, in-flight round fields
//   model   nn::serialize_state of the global model
//   …       the engine's own sections
//   obs     the obs registry, when SnapshotSchema::obs
// Meta section names differ per engine ("meta"/"smeta"/"nmeta"), so the
// engines refuse each other's snapshots.
//
// obs holds counters, gauges, histograms and span counts (not nanoseconds).
// Restoring it replaces the global registry except the live "ckpt.restore"
// counters, the one prefix excluded from resume bit-identity.
#pragma once

#include <functional>
#include <string>

#include "ckpt/codec.h"
#include "ckpt/manager.h"
#include "nn/module.h"

namespace oasis::ckpt {

/// Generations of engines that snapshot mid-round: t·2^20 at rest before
/// round t, t·2^20 + 1 + p after p progress points (shards, folds) of the
/// round started as ticket t — monotone, so newest-first restore lands on
/// the latest progress.
struct Generation {
  static constexpr std::uint64_t kStride = 1ULL << 20;
  static constexpr std::uint64_t at_rest(std::uint64_t round) {
    return round * kStride;
  }
  static constexpr std::uint64_t mid_round(std::uint64_t ticket,
                                           std::uint64_t progress) {
    return ticket * kStride + 1 + progress;
  }
  /// Throws ConfigError when `points` progress points (named by `what`)
  /// would number into the next round's range.
  static void require_room(std::uint64_t points, const char* what) {
    if (points > kStride - 2) {
      throw ConfigError(std::to_string(points) + " " + what +
                        " per round overflow the 2^20 generation stride");
    }
  }
};

/// The configuration fields a snapshot echoes. Each engine lists them once,
/// in a function that takes a ConfigEcho: built on the meta SectionWriter it
/// writes the fields, built on the SectionReader it reads each back and
/// throws CheckpointError{kStateMismatch} naming the first field that
/// differs and both values. No string is built unless a field differs.
class ConfigEcho {
 public:
  explicit ConfigEcho(SectionWriter& out) : out_(&out) {}
  explicit ConfigEcho(SectionReader& in) : in_(&in) {}
  ConfigEcho& u8(const char* field, std::uint8_t v) {
    return echo(field, 1, v);
  }
  ConfigEcho& u64(const char* field, std::uint64_t v) {
    return echo(field, 8, v);
  }
  /// Compared by value, so 0.0 matches -0.0.
  ConfigEcho& f64(const char* field, double v) {
    return echo(field, 0, std::bit_cast<std::uint64_t>(v));
  }

 private:
  /// `width` is the field's wire size in bytes; 0 marks an f64.
  ConfigEcho& echo(const char* field, int width, std::uint64_t bits);
  SectionWriter* out_ = nullptr;
  SectionReader* in_ = nullptr;
};

struct SnapshotSchema {
  const char* meta;  // the engine's meta section name
  bool obs;          // the snapshot carries the obs registry
};

/// Save side: bumps ckpt.save_total (before the obs capture, so a snapshot
/// counts itself) and starts a container with the meta and model sections.
/// The engine adds its own sections, then finish_snapshot() appends obs
/// when the schema has it and seals the container.
SnapshotBuilder begin_snapshot(const SnapshotSchema& schema,
                               SectionWriter meta, nn::Module& model);
ByteBuffer finish_snapshot(const SnapshotSchema& schema,
                           SnapshotBuilder& builder);

/// Decodes the shared sections up front; the engine decodes and checks its
/// own between construction and apply(), the only mutation phase, so a
/// snapshot that fails validation leaves the live engine untouched.
class SnapshotReader {
 public:
  SnapshotReader(const SnapshotSchema& schema, const Snapshot& snap);
  SectionReader& meta() { return meta_; }
  /// Loads the model (kStateMismatch when it does not fit), runs
  /// `apply_engine` (restore_round, then the engine's own state), applies
  /// obs, and bumps ckpt.restore_total.
  void apply(nn::Module& model, const std::function<void()>& apply_engine);

 private:
  const Snapshot& snap_;
  SectionReader meta_;
  std::function<void()> apply_obs_;  // empty when the schema has no obs
};

/// restore_checkpoint / save_checkpoint / resume_from for the in-process
/// engines. `Engine` provides encode_checkpoint(), checkpoint_generation(),
/// apply_snapshot(const Snapshot&) and server().
template <class Engine>
class Checkpointed {
 public:
  /// Throws CheckpointError (kStateMismatch for a differently configured
  /// federation) and leaves live state untouched on validation failure.
  void restore_checkpoint(const ByteBuffer& bytes) {
    self().apply_snapshot(Snapshot::parse(bytes));
  }
  /// manager.save(checkpoint_generation(), encode_checkpoint()); the path.
  std::string save_checkpoint(CheckpointManager& manager) {
    return manager.save(self().checkpoint_generation(),
                        self().encode_checkpoint());
  }
  /// Restores the newest VALID generation and returns the protocol round to
  /// continue from; CheckpointError{kNoValidGeneration} when none loads.
  std::uint64_t resume_from(CheckpointManager& manager) {
    self().apply_snapshot(manager.load_latest_valid().snapshot);
    return self().server().round();
  }

 private:
  Engine& self() { return static_cast<Engine&>(*this); }
};

}  // namespace oasis::ckpt
