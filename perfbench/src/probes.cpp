#include "probes.h"

#include <cstdio>
#include <cstdlib>

#include "common/crc32c.h"
#include "common/rng.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "tensor/ops.h"

namespace perfbench {

using namespace oasis;
using tensor::gemm::Variant;

namespace {

/// Repeats `fn` until at least `min_ms` elapsed (and at least 3 times);
/// returns the median per-call ms.
template <class F>
double median_call_ms(double min_ms, F&& fn) {
  std::vector<double> samples;
  const std::uint64_t start = now_ns();
  while (samples.size() < 3 || ns_to_ms(now_ns() - start) < min_ms) {
    const std::uint64_t t0 = now_ns();
    fn();
    samples.push_back(ns_to_ms(now_ns() - t0));
  }
  return median(samples);
}

}  // namespace

std::vector<GemmShape> gemm_shapes(nn::Sequential& model,
                                   const tensor::Shape& input,
                                   const std::vector<index_t>& layers) {
  std::vector<GemmShape> out;
  tensor::Tensor h(input);
  for (index_t i = 0; i < model.size(); ++i) {
    nn::Module& m = model.at(i);
    const tensor::Shape in_shape = h.shape();
    h = m.forward(h, /*training=*/false);
    bool wanted = layers.empty();
    for (const auto l : layers) wanted = wanted || l == i;
    if (!wanted) continue;
    char idx[32];
    std::snprintf(idx, sizeof(idx), "%02zu.", static_cast<std::size_t>(i));
    const std::string stem = "tensor.gemm." + std::string(idx) + m.name();
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
      const index_t out_ch = conv->weight().value.dim(0);
      const index_t cols = conv->weight().value.dim(1);
      const index_t pix = h.dim(2) * h.dim(3);
      out.push_back({stem + ".fwd", Variant::NN, out_ch, cols, pix});
      out.push_back({stem + ".bwd_w", Variant::NT, out_ch, pix, cols});
      out.push_back({stem + ".bwd_in", Variant::TN, cols, out_ch, pix});
    } else if (auto* dense = dynamic_cast<nn::Dense*>(&m)) {
      const index_t batch = in_shape[0];
      const index_t outf = dense->weight().value.dim(0);
      const index_t inf = dense->weight().value.dim(1);
      out.push_back({stem + ".fwd", Variant::NT, batch, inf, outf});
      out.push_back({stem + ".bwd_w", Variant::TN, outf, batch, inf});
      out.push_back({stem + ".bwd_in", Variant::NN, batch, outf, inf});
    }
  }
  return out;
}

void probe_gemm(const std::vector<GemmShape>& shapes, std::uint64_t seed,
                Report& report) {
  common::Rng rng(seed);
  for (const auto& s : shapes) {
    std::vector<real> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n, 0.0);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    const double ms = median_call_ms(20.0, [&] {
      tensor::gemm::run(s.variant, s.m, s.k, s.n, a.data(), b.data(), c.data());
    });
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    report.metric(s.name + ".gflops", flops / (ms * 1e6), "GFLOP/s",
                  "m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                      " n=" + std::to_string(s.n));
  }
}

void probe_payload(const tensor::ByteBuffer& gradients, bool with_serialize,
                   Report& report) {
  const double deser = median_call_ms(20.0, [&] {
    const auto t = tensor::deserialize_tensors(gradients);
    if (t.empty()) std::abort();
  });
  const double scan = median_call_ms(20.0, [&] {
    const auto s = tensor::scan_tensors(gradients);
    if (!s.all_finite) std::abort();
  });
  std::uint32_t sink = 0;
  const double crc = median_call_ms(20.0, [&] {
    sink ^= common::crc32c(gradients.data(), gradients.size());
  });
  const std::string bytes = std::to_string(gradients.size()) + " B update";
  report.metric("tensor.deserialize.ms", deser, "ms", bytes);
  report.metric("tensor.scan.ms", scan, "ms", bytes);
  report.metric("common.crc32c.gb_per_s",
                static_cast<double>(gradients.size()) / (crc * 1e6), "GB/s",
                bytes + ", crc " + std::to_string(sink & 1));
  report.metric("common.crc32c.ms_per_update", crc, "ms", bytes);
  if (!with_serialize) return;
  const auto tensors = tensor::deserialize_tensors(gradients);
  const double ser = median_call_ms(20.0, [&] {
    if (tensor::serialize_tensors(tensors).size() != gradients.size()) {
      std::abort();
    }
  });
  report.metric("tensor.serialize.ms", ser, "ms", bytes);
}

void probe_augment(const fl::BatchPreprocessor& preprocessor,
                   const data::Batch& batch, std::uint64_t seed,
                   Report& report) {
  common::Rng rng(seed);
  index_t out = 0;
  const double ms = median_call_ms(20.0, [&] {
    out = preprocessor.process(batch, rng).size();
  });
  report.metric("augment.oasis.ms", ms, "ms",
                "per batch of " + std::to_string(batch.size()));
  report.metric("augment.expansion",
                static_cast<double>(out) / static_cast<double>(batch.size()),
                "ratio", std::to_string(out) + " images out / " +
                             std::to_string(batch.size()) + " in");
}

void probe_im2col(nn::Sequential& model, const tensor::Shape& input,
                  Report& report) {
  struct ConvCall {
    index_t c, h, w, k, stride, pad, cols, pix;
  };
  std::vector<ConvCall> calls;
  tensor::Tensor x(input);
  for (index_t i = 0; i < model.size(); ++i) {
    nn::Module& m = model.at(i);
    const tensor::Shape in_shape = x.shape();
    x = m.forward(x, /*training=*/false);
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
      const index_t cols = conv->weight().value.dim(1);
      index_t k = 1;
      while (k * k * in_shape[1] < cols) ++k;
      // Conv2d does not expose stride/padding; the models here use
      // "same" convolutions (stride 1, pad (k-1)/2), which the output
      // extent confirms.
      if (x.dim(2) != in_shape[2] || x.dim(3) != in_shape[3]) continue;
      calls.push_back({in_shape[1], in_shape[2], in_shape[3], k, 1,
                       (k - 1) / 2, cols, x.dim(2) * x.dim(3)});
    }
  }
  const index_t batch = input[0];
  std::vector<std::vector<real>> images, columns;
  for (const auto& c : calls) {
    images.emplace_back(c.c * c.h * c.w, 0.5);
    columns.emplace_back(c.cols * c.pix, 0.25);
  }
  const double im2col = median_call_ms(20.0, [&] {
    for (std::size_t j = 0; j < calls.size(); ++j) {
      const auto& c = calls[j];
      for (index_t n = 0; n < batch; ++n) {
        tensor::im2col_into(images[j].data(), c.c, c.h, c.w, c.k, c.k,
                            c.stride, c.pad, columns[j].data());
      }
    }
  });
  const double col2im = median_call_ms(20.0, [&] {
    for (std::size_t j = 0; j < calls.size(); ++j) {
      const auto& c = calls[j];
      for (index_t n = 0; n < batch; ++n) {
        tensor::col2im_add(columns[j].data(), c.c, c.h, c.w, c.k, c.k,
                           c.stride, c.pad, images[j].data());
      }
    }
  });
  const std::string detail = std::to_string(calls.size()) + " conv layers x " +
                             std::to_string(batch) + " images per update";
  report.metric("tensor.im2col.ms", im2col, "ms", detail);
  report.metric("tensor.col2im.ms", col2im, "ms", detail);
}

void report_span_mean(const SpanLog& log, const std::string& span,
                      Report& report) {
  report.metric(span + ".ms", log.mean_ms(span), "ms",
                "mean of " + std::to_string(log.count(span)) + " calls");
}

}  // namespace perfbench
