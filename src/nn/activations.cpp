#include "nn/activations.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace oasis::nn {

tensor::Tensor ReLU::forward(const tensor::Tensor& x, bool /*training*/) {
  shape_ = x.shape();
  keep_.resize(x.size());
  tensor::Tensor y(x.shape());
  const auto in = x.data();
  auto out = y.data();
  for (index_t i = 0; i < in.size(); ++i) {
    out[i] = std::max(in[i], 0.0);  // tensor::relu's expression
    keep_[i] = !(in[i] <= 0.0);
  }
  return y;
}

tensor::Tensor ReLU::backward(const tensor::Tensor& grad_out) {
  tensor::check_same_shape(grad_out.shape(), shape_, "ReLU backward");
  tensor::Tensor grad_in = grad_out;
  auto g = grad_in.data();
  for (index_t i = 0; i < g.size(); ++i) {
    if (keep_[i] == 0) g[i] = 0.0;
  }
  return grad_in;
}

tensor::Tensor Tanh::forward(const tensor::Tensor& x, bool /*training*/) {
  tensor::Tensor out = x;
  for (auto& v : out.data()) v = std::tanh(v);
  cached_out_ = out;
  return out;
}

tensor::Tensor Tanh::backward(const tensor::Tensor& grad_out) {
  tensor::check_same_shape(grad_out.shape(), cached_out_.shape(),
                           "Tanh backward");
  tensor::Tensor grad_in = grad_out;
  auto g = grad_in.data();
  auto y = cached_out_.data();
  for (index_t i = 0; i < g.size(); ++i) g[i] *= 1.0 - y[i] * y[i];
  return grad_in;
}

tensor::Tensor Sigmoid::forward(const tensor::Tensor& x, bool /*training*/) {
  tensor::Tensor out = x;
  for (auto& v : out.data()) v = 1.0 / (1.0 + std::exp(-v));
  cached_out_ = out;
  return out;
}

tensor::Tensor Sigmoid::backward(const tensor::Tensor& grad_out) {
  tensor::check_same_shape(grad_out.shape(), cached_out_.shape(),
                           "Sigmoid backward");
  tensor::Tensor grad_in = grad_out;
  auto g = grad_in.data();
  auto y = cached_out_.data();
  for (index_t i = 0; i < g.size(); ++i) g[i] *= y[i] * (1.0 - y[i]);
  return grad_in;
}

}  // namespace oasis::nn
