// NN library tests: analytic gradients vs finite differences for every
// layer, loss correctness, optimizer behaviour, container surgery, state
// snapshot round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/loss.h"
#include "nn/scheduler.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "obs/obs.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace oasis::nn {
namespace {

constexpr real kGradTol = 2e-4;

TEST(Dense, ForwardKnownValues) {
  common::Rng rng(1);
  Dense layer(2, 2, rng);
  layer.weight().value = tensor::Tensor({2, 2}, {1.0, 2.0, 3.0, 4.0});
  layer.bias().value = tensor::Tensor({2}, {0.5, -0.5});
  tensor::Tensor x({1, 2}, {1.0, 1.0});
  tensor::Tensor y = layer.forward(x, true);
  // y = x·Wᵀ + b; row0 of W = [1,2] -> 3 + 0.5
  EXPECT_DOUBLE_EQ(y.at2(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(y.at2(0, 1), 6.5);
}

TEST(Dense, RejectsBadInput) {
  common::Rng rng(1);
  Dense layer(4, 3, rng);
  EXPECT_THROW(layer.forward(tensor::Tensor({2, 5}), true), Error);
}

TEST(Dense, GradientsMatchFiniteDifferences) {
  common::Rng rng(2);
  Dense layer(6, 4, rng);
  tensor::Tensor x = tensor::Tensor::randn({3, 6}, rng);
  EXPECT_LT(testutil::check_gradients(layer, x, rng), kGradTol);
}

TEST(Dense, GradientsAccumulateAcrossBackwardCalls) {
  common::Rng rng(3);
  Dense layer(3, 2, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 3}, rng);
  tensor::Tensor g = tensor::Tensor::ones({2, 2});
  layer.forward(x, true);
  layer.backward(g);
  const tensor::Tensor once = layer.weight().grad;
  layer.forward(x, true);
  layer.backward(g);
  EXPECT_TRUE(tensor::allclose(layer.weight().grad, once + once));
  layer.zero_grad();
  EXPECT_DOUBLE_EQ(layer.weight().grad.max(), 0.0);
}

TEST(Dense, BatchSummedBiasGradient) {
  // The bias gradient must equal the sum of per-row output grads — the exact
  // quantity the attacks divide by.
  common::Rng rng(4);
  Dense layer(3, 2, rng);
  tensor::Tensor x = tensor::Tensor::randn({5, 3}, rng);
  tensor::Tensor g = tensor::Tensor::randn({5, 2}, rng);
  layer.forward(x, true);
  layer.backward(g);
  EXPECT_TRUE(tensor::allclose(layer.bias().grad, tensor::sum_rows(g)));
}

TEST(Activations, ReluGradient) {
  common::Rng rng(5);
  ReLU layer;
  // Offset inputs away from the kink to keep finite differences valid.
  tensor::Tensor x = tensor::Tensor::randn({4, 7}, rng);
  for (auto& v : x.data()) {
    if (std::abs(v) < 0.05) v += 0.2;
  }
  EXPECT_LT(testutil::check_gradients(layer, x, rng), kGradTol);
}

// ReLU caches a byte mask keep = !(x <= 0) instead of its input. NaN keeps
// its gradient and -0.0 drops it, exactly as tensor::relu_backward decides,
// and the forward output is tensor::relu's, bit for bit.
TEST(Activations, ReluMaskMatchesReluBackwardOnSpecialValues) {
  using limits = std::numeric_limits<real>;
  const std::vector<real> values{limits::quiet_NaN(), -limits::quiet_NaN(),
                                 0.0, -0.0, limits::denorm_min(),
                                 -limits::denorm_min(), limits::min(),
                                 -limits::min(), limits::infinity(),
                                 -limits::infinity(), 2.5, -2.5};
  const tensor::Tensor x({3, 4}, values);
  tensor::Tensor gy({3, 4});
  for (index_t i = 0; i < gy.size(); ++i) gy[i] = 1.0 + static_cast<real>(i);
  ReLU relu;
  const tensor::Tensor y = relu.forward(x, true);
  const tensor::Tensor y_ref = tensor::relu(x);
  EXPECT_EQ(std::memcmp(y.data().data(), y_ref.data().data(),
                        sizeof(real) * y.size()),
            0);
  const tensor::Tensor g = relu.backward(gy);
  const tensor::Tensor g_ref = tensor::relu_backward(gy, x);
  ASSERT_EQ(g.shape(), g_ref.shape());
  EXPECT_EQ(std::memcmp(g.data().data(), g_ref.data().data(),
                        sizeof(real) * g.size()),
            0);
  EXPECT_EQ(g[0], gy[0]);     // NaN passes the gradient
  EXPECT_EQ(g[3], 0.0);       // -0.0 does not
  EXPECT_EQ(g[4], gy[4]);     // a positive denormal does
  EXPECT_THROW(relu.backward(tensor::Tensor({4, 3})), Error);
}

TEST(Activations, TanhGradient) {
  common::Rng rng(6);
  Tanh layer;
  tensor::Tensor x = tensor::Tensor::randn({3, 5}, rng);
  EXPECT_LT(testutil::check_gradients(layer, x, rng), kGradTol);
}

TEST(Activations, SigmoidGradient) {
  common::Rng rng(7);
  Sigmoid layer;
  tensor::Tensor x = tensor::Tensor::randn({3, 5}, rng);
  EXPECT_LT(testutil::check_gradients(layer, x, rng), kGradTol);
}

TEST(Conv2d, MatchesDirectConvolution) {
  common::Rng rng(8);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  conv.weight().value =
      tensor::Tensor({1, 9}, {0, 0, 0, 0, 1, 0, 0, 0, 0});  // identity tap
  conv.bias().value = tensor::Tensor({1}, {0.25});
  tensor::Tensor x = tensor::Tensor::randn({1, 1, 5, 5}, rng);
  tensor::Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 3, 3}));
  // Identity kernel picks the center pixel.
  EXPECT_NEAR(y.at4(0, 0, 1, 1), x.at4(0, 0, 2, 2) + 0.25, 1e-12);
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  common::Rng rng(9);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 5, 5}, rng);
  EXPECT_LT(testutil::check_gradients(conv, x, rng), kGradTol);
}

TEST(Conv2d, StridedGradients) {
  common::Rng rng(10);
  Conv2d conv(1, 2, 3, 2, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 1, 6, 6}, rng);
  EXPECT_LT(testutil::check_gradients(conv, x, rng), kGradTol);
}

// kernel.{conv2d,dense}.backward.flops count only the GEMMs that ran:
// backward_params skips the input-gradient GEMM, so it counts half.
TEST(Conv2d, BackwardFlopCountersCountOnlyTheGemmsThatRan) {
  obs::set_kernel_metrics(true);
  common::Rng rng(12);
  Conv2d conv(2, 3, 3, 1, 1, rng);  // 2·3·(2·3·3)·(5·5) flops per GEMM
  Dense dense(6, 4, rng);            // 2·3·6·4 flops per GEMM
  const tensor::Tensor x({3, 2, 5, 5});
  const tensor::Tensor xd({3, 6});
  obs::Counter& conv_flops = obs::counter("kernel.conv2d.backward.flops");
  obs::Counter& dense_flops = obs::counter("kernel.dense.backward.flops");
  const std::uint64_t conv_gemm = 2 * 3 * 3 * 18 * 25, dense_gemm = 2 * 3 * 6 * 4;
  for (const bool params_only : {false, true}) {
    const std::uint64_t c0 = conv_flops.value(), d0 = dense_flops.value();
    const tensor::Tensor gy(conv.forward(x, true).shape());
    const tensor::Tensor gyd(dense.forward(xd, true).shape());
    if (params_only) {
      conv.backward_params(gy);
      dense.backward_params(gyd);
    } else {
      conv.backward(gy);
      dense.backward(gyd);
    }
    const std::uint64_t gemms = params_only ? 1 : 2;
    EXPECT_EQ(conv_flops.value() - c0, gemms * conv_gemm);
    EXPECT_EQ(dense_flops.value() - d0, gemms * dense_gemm);
  }
  obs::set_kernel_metrics(false);
}

TEST(Pooling, MaxPoolForwardAndGradient) {
  common::Rng rng(11);
  MaxPool2d pool(2, 2);
  tensor::Tensor x({1, 1, 2, 2}, {1.0, 4.0, 2.0, 3.0});
  tensor::Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  tensor::Tensor g({1, 1, 1, 1}, {2.5});
  tensor::Tensor gx = pool.backward(g);
  EXPECT_DOUBLE_EQ(gx[1], 2.5);  // flows to the argmax only
  EXPECT_DOUBLE_EQ(gx[0], 0.0);

  // Finite differences on random data (distinct values avoid ties).
  tensor::Tensor xr = tensor::Tensor::randn({2, 2, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(pool, xr, rng), kGradTol);
}

TEST(Pooling, AvgPoolGradient) {
  common::Rng rng(12);
  AvgPool2d pool(2, 2);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(pool, x, rng), kGradTol);
}

TEST(Pooling, GlobalAvgPoolGradient) {
  common::Rng rng(13);
  GlobalAvgPool pool;
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(pool, x, rng), kGradTol);
}

TEST(Pooling, OverlappingMaxPoolGradient) {
  // kernel > stride: windows overlap, so one input pixel can be the argmax
  // of several windows and must accumulate gradient from each.
  common::Rng rng(31);
  MaxPool2d pool(3, 2);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 7, 7}, rng);
  EXPECT_LT(testutil::check_gradients(pool, x, rng), kGradTol);
}

TEST(Pooling, OverlappingAvgPoolGradient) {
  common::Rng rng(32);
  AvgPool2d pool(3, 2);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 7, 7}, rng);
  EXPECT_LT(testutil::check_gradients(pool, x, rng), kGradTol);
}

TEST(Pooling, FlattenRoundTrip) {
  common::Rng rng(14);
  Flatten flatten;
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 5}, rng);
  tensor::Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 60}));
  tensor::Tensor gx = flatten.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_TRUE(tensor::allclose(gx, x));
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  common::Rng rng(15);
  BatchNorm2d bn(3);
  tensor::Tensor x = tensor::Tensor::randn({4, 3, 5, 5}, rng, 2.0, 3.0);
  tensor::Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1.
  const index_t hw = 25;
  for (index_t c = 0; c < 3; ++c) {
    real m = 0.0, v = 0.0;
    for (index_t n = 0; n < 4; ++n)
      for (index_t p = 0; p < hw; ++p) m += y.data()[(n * 3 + c) * hw + p];
    m /= 100.0;
    for (index_t n = 0; n < 4; ++n)
      for (index_t p = 0; p < hw; ++p) {
        const real d = y.data()[(n * 3 + c) * hw + p] - m;
        v += d * d;
      }
    v /= 100.0;
    EXPECT_NEAR(m, 0.0, 1e-9);
    EXPECT_NEAR(v, 1.0, 1e-3);
  }
}

TEST(BatchNorm, GradientsMatchFiniteDifferences) {
  common::Rng rng(16);
  BatchNorm2d bn(2);
  tensor::Tensor x = tensor::Tensor::randn({3, 2, 3, 3}, rng);
  EXPECT_LT(testutil::check_gradients(bn, x, rng), kGradTol);
}

TEST(BatchNorm, EvalModeGradientsMatchFiniteDifferences) {
  // Eval mode normalizes with the (frozen) running statistics, which makes
  // the layer affine in x — the backward pass must use those same stats,
  // not the batch stats. A few training passes first so the running stats
  // are non-trivial.
  common::Rng rng(33);
  BatchNorm2d bn(2);
  for (int i = 0; i < 5; ++i) {
    bn.forward(tensor::Tensor::randn({4, 2, 3, 3}, rng, 1.5, 2.0), true);
  }
  tensor::Tensor x = tensor::Tensor::randn({3, 2, 3, 3}, rng);
  EXPECT_LT(testutil::check_gradients(bn, x, rng, /*training=*/false),
            kGradTol);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  common::Rng rng(17);
  BatchNorm2d bn(1);
  tensor::Tensor x = tensor::Tensor::randn({8, 1, 4, 4}, rng, 5.0, 2.0);
  for (int i = 0; i < 50; ++i) bn.forward(x, true);
  tensor::Tensor y = bn.forward(x, false);
  // After many EMA updates on the same batch, eval output ≈ train output.
  tensor::Tensor yt = bn.forward(x, true);
  EXPECT_LT(tensor::max_abs_diff(y, yt), 0.05);
}

TEST(Residual, GradientsMatchFiniteDifferences) {
  common::Rng rng(18);
  ResidualBlock block(2, 4, 2, rng);  // projection path
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 6, 6}, rng);
  EXPECT_LT(testutil::check_gradients(block, x, rng), 5e-4);
}

TEST(Residual, IdentityShortcutGradients) {
  common::Rng rng(19);
  ResidualBlock block(3, 3, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(block, x, rng), 5e-4);
}

TEST(Residual, EvalModeGradients) {
  // The block's inner BatchNorms switch to running stats in eval mode; the
  // composed backward must stay consistent with that forward.
  common::Rng rng(34);
  ResidualBlock block(2, 2, 1, rng);
  for (int i = 0; i < 5; ++i) {
    block.forward(tensor::Tensor::randn({4, 2, 4, 4}, rng), true);
  }
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(block, x, rng, /*training=*/false),
            5e-4);
}

TEST(Sequential, ForwardBackwardComposition) {
  common::Rng rng(20);
  Sequential net;
  net.emplace<Dense>(5, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(8, 3, rng);
  tensor::Tensor x = tensor::Tensor::randn({4, 5}, rng);
  EXPECT_LT(testutil::check_gradients(net, x, rng), kGradTol);
  EXPECT_EQ(net.parameters().size(), 4u);
}

// backward_params stops at the lowest parameterized module and skips its
// input gradient; the parameter gradients it accumulates must be byte-equal
// to backward()'s, also when a second pass accumulates onto the first.
TEST(Sequential, BackwardParamsMatchesBackwardBitForBit) {
  const ImageSpec spec{3, 12, 12};
  const std::vector<
      std::pair<std::string, std::function<std::unique_ptr<Sequential>()>>>
      families{{"mlp",
                [&] {
                  common::Rng rng(41);
                  return make_mlp(spec, {32, 16}, 5, rng);
                }},
               {"mini_convnet",
                [&] {
                  common::Rng rng(42);
                  return make_mini_convnet(spec, 5, rng, /*width=*/4);
                }},
               {"linear",
                [&] {
                  common::Rng rng(43);
                  return make_linear_model(spec, 5, rng);
                }},
               {"attack_host", [&] {
                  common::Rng rng(44);
                  return make_attack_host(spec, 24, 5, rng);
                }}};
  const SoftmaxCrossEntropy loss_fn;
  for (const auto& [name, make] : families) {
    SCOPED_TRACE(name);
    auto full = make();
    auto params_only = make();
    common::Rng data_rng(45);
    for (int pass = 0; pass < 2; ++pass) {
      tensor::Tensor x({7, 3, 12, 12});
      for (auto& v : x.data()) v = data_rng.uniform(-1.0, 1.0);
      const std::vector<index_t> labels{0, 1, 2, 3, 4, 0, 1};
      const auto grad = [&](Sequential& m) {
        return loss_fn.compute(m.forward(x, true), labels).grad_logits;
      };
      full->backward(grad(*full));
      params_only->backward_params(grad(*params_only));
    }
    const auto a = full->parameters();
    const auto b = params_only->parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i]->grad.shape(), b[i]->grad.shape());
      EXPECT_EQ(std::memcmp(a[i]->grad.data().data(), b[i]->grad.data().data(),
                            sizeof(real) * a[i]->grad.size()),
                0)
          << "parameter " << i;
    }
  }
  // A model without parameters has nothing to accumulate.
  Sequential stateless;
  stateless.emplace<ReLU>();
  stateless.forward(tensor::Tensor({2, 3}), true);
  EXPECT_NO_THROW(stateless.backward_params(tensor::Tensor({2, 3})));
}

TEST(Sequential, InsertPlacesModuleInOrder) {
  common::Rng rng(21);
  Sequential net;
  net.emplace<Dense>(4, 4, rng);
  net.emplace<Dense>(4, 2, rng);
  net.insert(1, std::make_unique<ReLU>());
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.at(1).name(), "ReLU");
  EXPECT_THROW(net.insert(9, std::make_unique<ReLU>()), Error);
}

TEST(Loss, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits over k classes: loss = log(k), grad = (1/k - onehot)/B.
  tensor::Tensor logits({2, 4});
  SoftmaxCrossEntropy loss_fn;
  const std::vector<index_t> labels{1, 3};
  const LossResult r = loss_fn.compute(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-12);
  EXPECT_NEAR(r.grad_logits.at2(0, 1), (0.25 - 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(r.grad_logits.at2(0, 0), 0.25 / 2.0, 1e-12);
}

TEST(Loss, SoftmaxCrossEntropyGradientNumeric) {
  common::Rng rng(22);
  tensor::Tensor logits = tensor::Tensor::randn({3, 5}, rng);
  const std::vector<index_t> labels{0, 2, 4};
  SoftmaxCrossEntropy loss_fn;
  const LossResult r = loss_fn.compute(logits, labels);
  real max_err = 0.0;
  for (index_t i = 0; i < logits.size(); ++i) {
    const real numeric = testutil::numeric_derivative(
        [&] { return loss_fn.compute(logits, labels).loss; },
        logits.data()[i]);
    max_err = std::max(max_err, std::abs(numeric - r.grad_logits[i]));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(Loss, SigmoidBceGradientNumeric) {
  common::Rng rng(23);
  tensor::Tensor logits = tensor::Tensor::randn({2, 4}, rng, 0.0, 2.0);
  const std::vector<index_t> labels{3, 0};
  SigmoidBce loss_fn;
  const LossResult r = loss_fn.compute(logits, labels);
  real max_err = 0.0;
  for (index_t i = 0; i < logits.size(); ++i) {
    const real numeric = testutil::numeric_derivative(
        [&] { return loss_fn.compute(logits, labels).loss; },
        logits.data()[i]);
    max_err = std::max(max_err, std::abs(numeric - r.grad_logits[i]));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(Loss, SumVsMeanReductionScale) {
  common::Rng rng(24);
  tensor::Tensor logits = tensor::Tensor::randn({4, 3}, rng);
  const std::vector<index_t> labels{0, 1, 2, 0};
  const LossResult mean =
      SoftmaxCrossEntropy(Reduction::kMean).compute(logits, labels);
  const LossResult sum =
      SoftmaxCrossEntropy(Reduction::kSum).compute(logits, labels);
  EXPECT_NEAR(sum.loss, mean.loss * 4.0, 1e-9);
  EXPECT_TRUE(tensor::allclose(sum.grad_logits, mean.grad_logits * 4.0));
}

TEST(Loss, MseKnownValue) {
  tensor::Tensor pred({2}, {1.0, 3.0});
  tensor::Tensor target({2}, {0.0, 1.0});
  const LossResult r = MseLoss().compute(pred, target);
  EXPECT_NEAR(r.loss, (1.0 + 4.0) / 2.0, 1e-12);
  EXPECT_NEAR(r.grad_logits[1], 2.0 * 2.0 / 2.0, 1e-12);
}

TEST(Optimizer, SgdStepMatchesFormula) {
  common::Rng rng(25);
  Dense layer(2, 2, rng);
  const tensor::Tensor w0 = layer.weight().value;
  layer.weight().grad.fill(1.0);
  layer.bias().grad.fill(2.0);
  Sgd opt(layer.parameters(), {.lr = 0.1, .momentum = 0.0,
                               .weight_decay = 0.0});
  opt.step();
  for (index_t i = 0; i < w0.size(); ++i) {
    EXPECT_NEAR(layer.weight().value[i], w0[i] - 0.1, 1e-12);
  }
  EXPECT_NEAR(layer.bias().value[0], -0.2, 1e-12);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  common::Rng rng(26);
  Dense layer(1, 1, rng);
  layer.weight().value.fill(0.0);
  Sgd opt(layer.parameters(), {.lr = 1.0, .momentum = 0.5,
                               .weight_decay = 0.0});
  layer.weight().grad.fill(1.0);
  opt.step();  // v=1, w=-1
  opt.step();  // v=1.5, w=-2.5
  EXPECT_NEAR(layer.weight().value[0], -2.5, 1e-12);
}

TEST(Optimizer, AdamFirstStepIsLrSignedGradient) {
  common::Rng rng(27);
  Dense layer(2, 1, rng);
  const tensor::Tensor w0 = layer.weight().value;
  layer.weight().grad = tensor::Tensor({1, 2}, {0.3, -0.7});
  Adam opt(layer.parameters(), {.lr = 0.01});
  opt.step();
  // Bias-corrected first Adam step ≈ lr * sign(g).
  EXPECT_NEAR(layer.weight().value[0], w0[0] - 0.01, 1e-5);
  EXPECT_NEAR(layer.weight().value[1], w0[1] + 0.01, 1e-5);
}

TEST(Optimizer, AdamReducesLossOnQuadratic) {
  // Minimize ||Wx - t||² for fixed x, t — loss must fall monotonically-ish.
  common::Rng rng(28);
  Dense layer(4, 4, rng);
  Dense teacher(4, 4, rng);  // target is realizable: t = teacher(x)
  tensor::Tensor x = tensor::Tensor::randn({8, 4}, rng);
  tensor::Tensor t = teacher.forward(x, false);
  MseLoss loss_fn;
  Adam opt(layer.parameters(), {.lr = 0.05});
  real first = 0.0, last = 0.0;
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    const tensor::Tensor y = layer.forward(x, true);
    const LossResult r = loss_fn.compute(y, t);
    layer.backward(r.grad_logits);
    opt.step();
    if (i == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first * 0.05);
}

TEST(ModelIo, SnapshotRoundTrip) {
  common::Rng rng(29);
  const ImageSpec spec{3, 8, 8};
  auto a = make_mini_resnet(spec, 5, rng, 4);
  auto b = make_mini_resnet(spec, 5, rng, 4);  // different init
  const auto state = snapshot_state(*a);
  load_state(*b, state);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 8, 8}, rng);
  // Identical state ⇒ identical eval outputs.
  EXPECT_TRUE(tensor::allclose(b->forward(x, false), a->forward(x, false)));
}

TEST(ModelIo, SerializedStateRoundTrip) {
  common::Rng rng(30);
  const ImageSpec spec{3, 8, 8};
  auto a = make_mini_convnet(spec, 4, rng, 4);
  auto b = make_mini_convnet(spec, 4, rng, 4);
  deserialize_state(*b, serialize_state(*a));
  tensor::Tensor x = tensor::Tensor::randn({1, 3, 8, 8}, rng);
  EXPECT_TRUE(tensor::allclose(b->forward(x, false), a->forward(x, false)));
}

TEST(ModelIo, StateCodecMatchesTheSnapshotEncodingByteForByte) {
  // Every family in models.h. MiniResNet's BatchNorm running statistics are
  // buffers(); a training pass moves them off their init first, so the
  // buffers' bytes are checked as well as the parameters'.
  const ImageSpec spec{3, 8, 8};
  const auto families = [&spec](common::Rng& rng) {
    std::vector<std::unique_ptr<Sequential>> models;
    models.push_back(make_mlp(spec, {16, 8}, 4, rng));
    models.push_back(make_mini_convnet(spec, 4, rng, 4));
    models.push_back(make_mini_resnet(spec, 4, rng, 4));
    models.push_back(make_linear_model(spec, 4, rng));
    models.push_back(make_attack_host(spec, 12, 4, rng));
    return models;
  };
  common::Rng rng_a(34), rng_b(35);
  auto sources = families(rng_a);
  auto targets = families(rng_b);
  ASSERT_FALSE(sources[2]->buffers().empty());
  const tensor::Tensor x = tensor::Tensor::randn({2, 3, 8, 8}, rng_a);
  for (std::size_t f = 0; f < sources.size(); ++f) {
    SCOPED_TRACE("family " + std::to_string(f));
    (void)sources[f]->forward(x, /*training=*/true);
    const tensor::ByteBuffer bytes = serialize_state(*sources[f]);
    EXPECT_EQ(bytes, tensor::serialize_tensors(snapshot_state(*sources[f])));

    deserialize_state(*targets[f], bytes);
    const auto want = snapshot_state(*sources[f]);
    const auto got = snapshot_state(*targets[f]);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].shape(), want[i].shape());
      EXPECT_EQ(std::memcmp(got[i].data().data(), want[i].data().data(),
                            want[i].size() * sizeof(real)),
                0)
          << "state tensor " << i;
    }
  }
}

TEST(ModelIo, LoadStateRejectsMismatch) {
  common::Rng rng(31);
  const ImageSpec spec{3, 8, 8};
  auto a = make_mlp(spec, {16}, 4, rng);
  auto state = snapshot_state(*a);
  state.pop_back();
  EXPECT_THROW(load_state(*a, state), SerializationError);
}

TEST(Models, AttackHostShapes) {
  common::Rng rng(32);
  const ImageSpec spec{3, 16, 16};
  auto host = make_attack_host(spec, 50, 10, rng);
  tensor::Tensor x = tensor::Tensor::randn({4, 3, 16, 16}, rng);
  tensor::Tensor y = host->forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{4, 10}));
  // The malicious slot is the first Dense with d inputs and n outputs.
  auto* dense = dynamic_cast<Dense*>(&host->at(kMaliciousDenseIndex));
  ASSERT_NE(dense, nullptr);
  EXPECT_EQ(dense->in_features(), spec.pixels());
  EXPECT_EQ(dense->out_features(), 50u);
}

TEST(Models, MiniResnetTrainEvalModes) {
  common::Rng rng(33);
  const ImageSpec spec{3, 16, 16};
  auto net = make_mini_resnet(spec, 7, rng, 4);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 16, 16}, rng);
  tensor::Tensor y = net->forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 7}));
  // Eval mode runs (running stats) without throwing and gives finite values.
  tensor::Tensor ye = net->forward(x, false);
  for (const auto v : ye.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout layer(0.5, common::Rng(1));
  common::Rng rng(2);
  tensor::Tensor x = tensor::Tensor::randn({4, 8}, rng);
  EXPECT_TRUE(layer.forward(x, false) == x);
  EXPECT_TRUE(layer.backward(x) == x);
}

TEST(Dropout, TrainModeMasksAndScales) {
  const real p = 0.3;
  Dropout layer(p, common::Rng(3));
  common::Rng rng(4);
  tensor::Tensor x = tensor::Tensor::full({1, 10000}, 1.0);
  tensor::Tensor y = layer.forward(x, true);
  index_t zeros = 0;
  const real keep_scale = 1.0 / (1.0 - p);
  for (const auto v : y.data()) {
    if (v == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, keep_scale, 1e-12);  // survivors scaled exactly
    }
  }
  EXPECT_NEAR(static_cast<real>(zeros) / 10000.0, p, 0.02);
  // Expected value preserved.
  EXPECT_NEAR(y.mean(), 1.0, 0.03);
  // Backward uses the same mask.
  tensor::Tensor g = tensor::Tensor::full({1, 10000}, 1.0);
  tensor::Tensor gx = layer.backward(g);
  for (index_t i = 0; i < gx.size(); ++i) {
    EXPECT_EQ(gx[i] == 0.0, y[i] == 0.0);
  }
}

TEST(Dropout, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(1.0, common::Rng(5)), Error);
  EXPECT_THROW(Dropout(-0.1, common::Rng(5)), Error);
}

TEST(Scheduler, StepDecay) {
  StepDecayLr sched(1.0, 10, 0.5);
  EXPECT_DOUBLE_EQ(sched.lr(0), 1.0);
  EXPECT_DOUBLE_EQ(sched.lr(9), 1.0);
  EXPECT_DOUBLE_EQ(sched.lr(10), 0.5);
  EXPECT_DOUBLE_EQ(sched.lr(25), 0.25);
}

TEST(Scheduler, CosineAnnealing) {
  CosineAnnealingLr sched(1.0, 100, 0.1);
  EXPECT_DOUBLE_EQ(sched.lr(0), 1.0);
  EXPECT_NEAR(sched.lr(50), 0.55, 1e-12);  // midpoint = (1+0.1)/2
  EXPECT_NEAR(sched.lr(100), 0.1, 1e-12);
  EXPECT_NEAR(sched.lr(500), 0.1, 1e-12);  // clamps past the horizon
}

TEST(Scheduler, OptimizerLrIsAdjustable) {
  common::Rng rng(6);
  Dense layer(2, 2, rng);
  Adam opt(layer.parameters(), {.lr = 1e-3});
  EXPECT_DOUBLE_EQ(opt.lr(), 1e-3);
  opt.set_lr(5e-4);
  EXPECT_DOUBLE_EQ(opt.lr(), 5e-4);
}

class MlpGradientSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(MlpGradientSweep, EndToEndGradients) {
  common::Rng rng(40 + GetParam());
  const ImageSpec spec{1, 4, 4};
  auto net = make_mlp(spec, {GetParam()}, 3, rng);
  tensor::Tensor x = tensor::Tensor::randn({3, 1, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(*net, x, rng), kGradTol);
}

INSTANTIATE_TEST_SUITE_P(HiddenWidths, MlpGradientSweep,
                         ::testing::Values(1, 4, 16, 33));

}  // namespace
}  // namespace oasis::nn
