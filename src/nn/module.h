// Module: the layer abstraction of the OASIS NN library.
//
// Contract (classic layer-wise backprop):
//   1. forward(x, training) computes the output and caches whatever the
//      layer needs for its backward pass (inputs, masks, ...).
//   2. backward(grad_out) must follow the matching forward(); it accumulates
//      parameter gradients (+=) and returns the gradient w.r.t. the input.
//   3. Parameter gradients accumulate until zero_grad().
//   4. backward_params(grad_out) is backward() for callers that discard the
//      input gradient (a training step): it accumulates the same parameter
//      gradients, bit for bit, and layers may skip the input-gradient work.
//
// Modules are deliberately stateful-per-pass rather than graph-based: the
// paper's attacks need nothing more than exact batch-summed gradients of a
// feed-forward network, and the explicit cache keeps the gradient arithmetic
// auditable (important when asserting bit-level reconstruction equalities).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace oasis::nn {

class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Computes the layer output; caches activations needed by backward().
  /// `training` toggles train-time behaviour (e.g. batch-norm statistics).
  virtual tensor::Tensor forward(const tensor::Tensor& x, bool training) = 0;

  /// Backpropagates: accumulates parameter grads, returns input grad.
  /// Must be called after the matching forward().
  virtual tensor::Tensor backward(const tensor::Tensor& grad_out) = 0;

  /// Accumulates the parameter grads backward() would, without returning
  /// the input grad. The default runs backward() and drops its result.
  virtual void backward_params(const tensor::Tensor& grad_out) {
    backward(grad_out);
  }

  /// Trainable parameters (empty for stateless layers). Pointers remain
  /// valid for the lifetime of the module.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Non-trainable state tensors that must travel with model snapshots
  /// (e.g. batch-norm running statistics). Empty for most layers.
  virtual std::vector<tensor::Tensor*> buffers() { return {}; }

  /// Human-readable layer name for diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Zeroes every parameter gradient.
  void zero_grad() {
    for (auto* p : parameters()) p->zero_grad();
  }
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace oasis::nn
