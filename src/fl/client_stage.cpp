#include "fl/client_stage.h"

#include "common/error.h"
#include "obs/obs.h"
#include "runtime/parallel.h"

namespace oasis::fl {

void run_client_stage(std::span<ClientSlot> slots, const TrainFn& train,
                      const FaultPlan& plan, std::uint64_t ticket,
                      index_t attempt) {
  static obs::Counter& trained = obs::counter("fl.clients_trained");
  static obs::Counter& bytes_up = obs::counter("fl.bytes_uploaded");
  static obs::Counter& corrupted = obs::counter("fl.fault.corrupt");
  static obs::Counter& poisoned = obs::counter("fl.fault.poison");
  static obs::Counter& byzantine = obs::counter("fl.fault.byzantine");
  static obs::Counter& duplicates = obs::counter("fl.fault.duplicate");

  // Refusals are recorded per slot inside the parallel region (no
  // cross-region throw) and tallied serially below.
  runtime::parallel_for(0, slots.size(), 1, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      // kRoot: the span path must not depend on whether this chunk runs
      // inline (threads=1) or on a pool worker.
      const obs::ScopedTimer client_span("fl.client_round",
                                         obs::ScopedTimer::kRoot);
      ClientSlot& s = slots[i];
      try {
        s.update = train(i);
      } catch (const AuditError&) {
        // The client refused the dispatched model: no upload, and no retry
        // either, since re-auditing the same model re-refuses.
        continue;
      }
      s.deliveries = 1;
    }
  });

  index_t uploads = 0;
  for (auto& s : slots) {
    if (s.deliveries == 0) continue;
    ++uploads;
    if (s.fault.kind == FaultKind::kCorrupt) corrupted.add(1);
    if (s.fault.kind == FaultKind::kPoison) poisoned.add(1);
    if (s.fault.kind == FaultKind::kByzantine) byzantine.add(1);
    plan.apply(s.update, s.fault, ticket, attempt, s.id);
    bytes_up.add(s.update.gradients.size());
    if (s.fault.kind == FaultKind::kCorrupt &&
        s.fault.corruption == CorruptionKind::kDuplicate) {
      duplicates.add(1);
      s.deliveries = 2;
    }
  }
  trained.add(uploads);
}

}  // namespace oasis::fl
