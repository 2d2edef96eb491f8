// Loading a snapshot's "model" section into a live model. The section passed
// its CRC already, so a payload that does not load is an architecture
// mismatch, not disk damage.
#pragma once

#include <string>

#include "common/error.h"
#include "nn/model_io.h"

namespace oasis::ckpt {

/// nn::deserialize_state, with any failure rethrown as
/// CheckpointError{kStateMismatch}.
inline void load_model_section(nn::Module& model,
                               const tensor::ByteBuffer& bytes) {
  try {
    nn::deserialize_state(model, bytes);
  } catch (const Error& e) {
    throw CheckpointError(
        CheckpointError::Reason::kStateMismatch,
        std::string("model state does not fit the live architecture: ") +
            e.what());
  }
}

}  // namespace oasis::ckpt
