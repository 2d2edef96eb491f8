#include "nn/model_io.h"

namespace oasis::nn {
namespace {

/// The model's state tensors in snapshot order: every parameter value, then
/// every buffer.
std::vector<tensor::Tensor*> state_tensors(Module& model) {
  std::vector<tensor::Tensor*> state;
  for (auto* p : model.parameters()) state.push_back(&p->value);
  for (auto* b : model.buffers()) state.push_back(b);
  return state;
}

}  // namespace

std::vector<tensor::Tensor> snapshot_state(Module& model) {
  std::vector<tensor::Tensor> state;
  for (const auto* t : state_tensors(model)) state.push_back(*t);
  return state;
}

void load_state(Module& model, const std::vector<tensor::Tensor>& state) {
  const auto targets = state_tensors(model);
  if (state.size() != targets.size()) {
    throw SerializationError("load_state: " + std::to_string(state.size()) +
                             " tensors for " + std::to_string(targets.size()) +
                             " state tensors");
  }
  // Every shape is checked before the first copy, so a mismatch anywhere
  // leaves the model as it was.
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i].shape() != targets[i]->shape()) {
      throw SerializationError(
          "load_state: tensor " + std::to_string(i) + " is " +
          tensor::to_string(state[i].shape()) + ", model has " +
          tensor::to_string(targets[i]->shape()));
    }
  }
  for (std::size_t i = 0; i < state.size(); ++i) *targets[i] = state[i];
}

std::vector<tensor::Tensor> snapshot_gradients(Module& model) {
  std::vector<tensor::Tensor> grads;
  for (const auto* p : model.parameters()) grads.push_back(p->grad);
  return grads;
}

tensor::ByteBuffer serialize_state(Module& model) {
  const auto state = state_tensors(model);
  return tensor::serialize_tensors(
      std::vector<const tensor::Tensor*>(state.begin(), state.end()));
}

void deserialize_state(Module& model, const tensor::ByteBuffer& bytes) {
  tensor::deserialize_tensors_into(bytes, state_tensors(model));
}

}  // namespace oasis::nn
