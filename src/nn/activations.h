// Stateless activation layers.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace oasis::nn {

/// Rectified linear unit. The attacks in this repo specifically target
/// FC+ReLU blocks: a neuron "activates" on x iff its pre-activation is
/// positive, which is the condition Proposition 1 of the paper reasons about.
class ReLU : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  // keep[i] = !(x[i] <= 0): the gradient passes where the input was
  // positive or NaN, as tensor::relu_backward decides. One byte per element
  // instead of a copy of the input; the storage is reused across calls.
  std::vector<std::uint8_t> keep_;
  tensor::Shape shape_;
};

/// Hyperbolic tangent (used by some baseline models).
class Tanh : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }

 private:
  tensor::Tensor cached_out_;
};

/// Sigmoid activation.
class Sigmoid : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }

 private:
  tensor::Tensor cached_out_;
};

}  // namespace oasis::nn
