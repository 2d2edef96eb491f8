// The fold stage every round engine shares (DESIGN.md §5i): screened
// updates are folded under Server::aggregator(), the quorum rule decides
// whether the round commits, and the server applies the aggregate.
// fl::Simulation (through Server::finish_round), fl::ShardedSimulation and
// net::FlServer all end their rounds here. The caller owns the UpdateScreen,
// so the sharded engine keeps one per shard and its O(shard) memory.
//
// kFedAvg and kNormBounded (clip, then the same fold) stream through one
// FedAvgAccumulator; kCoordinateMedian and kTrimmedMean buffer the accepted
// cohort. A buffered cohort has no snapshot form, so the two streaming
// engines call require_streaming() and refuse those rules.
#pragma once

#include <vector>

#include "ckpt/codec.h"
#include "fl/aggregation.h"
#include "fl/server.h"

namespace oasis::fl {

class RoundFold {
 public:
  /// `server` must outlive the fold.
  explicit RoundFold(Server& server) : server_(server) {}

  /// Valid-update quorum for a cohort of `m` clients: ceil(fraction·m), at
  /// least 1 when fraction > 0; 0 disables the quorum.
  [[nodiscard]] static index_t quorum_needed(real fraction, index_t m);

  /// Throws ConfigError unless 0 <= fraction <= 1; engines call it at
  /// construction.
  static void require_quorum_fraction(real fraction);

  /// Throws ConfigError when `server`'s rule buffers the cohort.
  static void require_streaming(const Server& server);

  /// Folds an update Server::screen_update accepted, weighted by its
  /// example count.
  void fold(AcceptedUpdate update);
  /// Server::screen_update, then fold() when accepted (else the rejection
  /// is tallied).
  RejectReason offer(const ClientUpdateMessage& update, UpdateScreen& screen);

  [[nodiscard]] index_t accepted() const { return accepted_; }
  [[nodiscard]] index_t rejected() const { return rejected_; }

  /// Ends the round and resets the fold. Throws QuorumError, with the model
  /// untouched, when accepted() < min_valid; otherwise commits the aggregate
  /// (or a skipped round when nothing was accepted) and returns whether the
  /// model advanced.
  bool commit(index_t min_valid);
  void reset();

  /// Snapshot codec, streaming rules only: u64 count, f64 total weight,
  /// bytes(serialized partial sums). decode() validates without mutating.
  struct Saved {
    std::uint64_t count = 0;
    real total_weight = 0.0;
    std::vector<tensor::Tensor> partials;
  };
  void encode(ckpt::SectionWriter& out) const;
  [[nodiscard]] static Saved decode(ckpt::SectionReader& in);
  void restore(Saved saved, index_t rejected);

 private:
  Server& server_;
  FedAvgAccumulator acc_;
  std::vector<std::vector<tensor::Tensor>> buffered_;  // median/trimmed only
  index_t accepted_ = 0;
  index_t rejected_ = 0;
};

}  // namespace oasis::fl
