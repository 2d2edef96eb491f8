// The client stage fl::Simulation and fl::ShardedSimulation share: clients
// train (and defend, inside Client::handle_round) in parallel into fixed
// slots, and AuditError refusals are marked per slot; then, serially in
// slot order, FaultPlan::apply damages the payloads on their way over the
// wire. Which clients respond, and which fault each draws, stay with the
// engine.
#pragma once

#include <functional>
#include <span>

#include "fl/fault.h"
#include "fl/message.h"

namespace oasis::fl {

struct ClientSlot {
  std::uint64_t id = 0;        // client id (fault-plan key)
  ClientFault fault;           // drawn by the engine before training
  ClientUpdateMessage update;  // filled by run_client_stage
  /// Copies of `update` to post: 0 when the client refused the model, 2
  /// for a duplicate-delivery fault (back to back), 1 otherwise.
  index_t deliveries = 0;
};

/// Trains slot `i`'s client on its dispatched model, defense stack applied
/// (may throw AuditError).
using TrainFn = std::function<ClientUpdateMessage(index_t slot)>;

/// Fills every slot's update and deliveries, tallying fl.clients_trained,
/// fl.bytes_uploaded and fl.fault.{corrupt,poison,byzantine,duplicate}.
void run_client_stage(std::span<ClientSlot> slots, const TrainFn& train,
                      const FaultPlan& plan, std::uint64_t ticket,
                      index_t attempt);

}  // namespace oasis::fl
