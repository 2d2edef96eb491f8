// 2-D convolution layer (patch-major im2col + blocked GEMM, in sample chunks).
#pragma once

#include "nn/module.h"
#include "tensor/tensor.h"

namespace oasis::nn {

/// Conv2d over [B, C, H, W] inputs with square kernels, zero padding.
///
/// Weight stored as a [out_channels, in_channels*k*k] matrix. Samples are
/// processed in chunks whose im2col columns fit a per-core L2: each chunk's
/// columns are written patch-major ([pixels, in_ch*k*k]) into the thread's
/// workspace, and one GEMM with chunk·pixels rows and out_channels columns
/// computes the chunk's output (DESIGN.md §5f).
class Conv2d : public Module {
 public:
  Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
         index_t stride, index_t pad, common::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  /// Parameter gradients only: skips the input-gradient GEMM and col2im.
  void backward_params(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  /// Accumulates the parameter gradients; returns the input gradient when
  /// `input_grad` is set, an empty tensor otherwise.
  tensor::Tensor backward_impl(const tensor::Tensor& grad_out,
                               bool input_grad);

  index_t in_ch_, out_ch_, k_, stride_, pad_;
  Parameter weight_;  // [out_ch, in_ch*k*k]
  Parameter bias_;    // [out_ch]
  // The forward input, [batch, in_ch, h, w]: backward recomputes each
  // chunk's columns from it instead of keeping all of them, which at stride
  // 1 would be k*k times larger. Its storage is reused across forward calls.
  tensor::Tensor cached_input_;
};

}  // namespace oasis::nn
