#include "fl/round_fold.h"

#include <cmath>
#include <string>

#include "tensor/serialize.h"

namespace oasis::fl {

namespace {

bool buffers(AggregatorKind kind) {
  return kind == AggregatorKind::kCoordinateMedian ||
         kind == AggregatorKind::kTrimmedMean;
}

}  // namespace

index_t RoundFold::quorum_needed(real fraction, index_t m) {
  require_quorum_fraction(fraction);
  if (fraction <= 0.0) return 0;
  auto needed =
      static_cast<index_t>(std::ceil(fraction * static_cast<real>(m)));
  return needed < 1 ? 1 : needed;
}

void RoundFold::require_quorum_fraction(real fraction) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {  // NaN fails too
    throw ConfigError("quorum_fraction " + std::to_string(fraction) +
                      " outside [0, 1]");
  }
}

void RoundFold::require_streaming(const Server& server) {
  const AggregatorKind kind = server.aggregator().kind;
  if (buffers(kind)) {
    throw ConfigError(std::string(to_string(kind)) +
                      " buffers the whole cohort, which a streaming engine "
                      "cannot snapshot mid-round — use fl::Simulation, or "
                      "normbound for a streaming-compatible defense");
  }
}

void RoundFold::fold(AcceptedUpdate update) {
  const AggregatorConfig& rule = server_.aggregator();
  ++accepted_;
  if (buffers(rule.kind)) {
    buffered_.push_back(std::move(update.gradients));
    return;
  }
  // Norm-bounded: same accumulator, order and weights as FedAvg — the clip
  // is the only difference.
  if (rule.kind == AggregatorKind::kNormBounded) {
    clip_gradients_to_norm(update.gradients, rule.norm_bound);
  }
  acc_.add(std::move(update.gradients),
           static_cast<real>(update.num_examples));
}

RejectReason RoundFold::offer(const ClientUpdateMessage& update,
                              UpdateScreen& screen) {
  AcceptedUpdate accepted;
  const RejectReason reason = server_.screen_update(update, screen, accepted);
  if (reason == RejectReason::kAccepted) {
    fold(std::move(accepted));
  } else {
    ++rejected_;
  }
  return reason;
}

bool RoundFold::commit(index_t min_valid) {
  const index_t valid = accepted_;
  if (valid < min_valid) {
    reset();
    throw QuorumError("round " + std::to_string(server_.round()) + ": " +
                      std::to_string(valid) + " valid updates < " +
                      std::to_string(min_valid) + " required for quorum");
  }
  if (valid == 0) {
    reset();
    server_.commit_skipped_round();
    return false;
  }
  const AggregatorConfig& rule = server_.aggregator();
  const std::vector<tensor::Tensor> average =
      !buffers(rule.kind) ? acc_.average()
      : rule.kind == AggregatorKind::kCoordinateMedian
          ? coordinate_median(buffered_)
          : trimmed_mean(buffered_, rule.trim_fraction);
  reset();
  server_.commit_round(average);
  return true;
}

void RoundFold::reset() {
  acc_.reset();
  buffered_.clear();
  accepted_ = 0;
  rejected_ = 0;
}

void RoundFold::encode(ckpt::SectionWriter& out) const {
  OASIS_CHECK_MSG(buffered_.empty(), "a buffered cohort has no snapshot form");
  out.u64(acc_.count());
  out.f64(static_cast<double>(acc_.total_weight()));
  out.bytes(tensor::serialize_tensors(acc_.partials()));
}

RoundFold::Saved RoundFold::decode(ckpt::SectionReader& in) {
  Saved saved;
  saved.count = in.u64();
  saved.total_weight = static_cast<real>(in.f64());
  const ckpt::ByteBuffer partial_bytes = in.bytes();
  try {
    saved.partials = tensor::deserialize_tensors(partial_bytes);
  } catch (const Error& e) {
    throw CheckpointError(
        CheckpointError::Reason::kMalformedSection,
        std::string("accumulator partials failed to decode: ") + e.what());
  }
  return saved;
}

void RoundFold::restore(Saved saved, index_t rejected) {
  acc_.restore(std::move(saved.partials), saved.total_weight, saved.count);
  buffered_.clear();
  accepted_ = static_cast<index_t>(saved.count);
  rejected_ = rejected;
}

}  // namespace oasis::fl
