#include "nn/conv2d.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "nn/init.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "tensor/gemm/gemm.h"
#include "tensor/ops.h"

namespace oasis::nn {

namespace {

// Doubles of im2col columns per sample chunk: 512 KiB, a quarter of a
// 2 MiB per-core L2, so a chunk's columns, its GEMM output and the packed
// weight stay L2-resident. MiniConvNet's first layer (27 × 576 columns per
// sample) runs 4 samples per chunk, its second (72 × 144) 6.
constexpr index_t kChunkColumns = index_t{1} << 16;

/// Geometry of one image through the layer.
struct ConvGeom {
  index_t in_ch, h, w, k, stride, pad, oh, ow;
  [[nodiscard]] index_t pix() const { return oh * ow; }
  [[nodiscard]] index_t patch() const { return in_ch * k * k; }
  [[nodiscard]] index_t image() const { return in_ch * h * w; }
  /// Source row (or column) read by output position `o` at tap `t`; outside
  /// [0, extent) it falls in the zero padding.
  [[nodiscard]] std::ptrdiff_t in_index(index_t o, index_t t) const {
    return static_cast<std::ptrdiff_t>(o * stride + t) -
           static_cast<std::ptrdiff_t>(pad);
  }
};

/// Patch-major im2col of one [in_ch, h, w] image: row p = oi·ow + oj of
/// `dst` holds output pixel p's in_ch·k·k taps in (ch, ki, kj) order — the
/// column order of the weight matrix. Padding taps are written as 0.
void im2col_patches(const real* src, const ConvGeom& g, real* dst) {
  const auto h = static_cast<std::ptrdiff_t>(g.h);
  const auto w = static_cast<std::ptrdiff_t>(g.w);
  for (index_t oi = 0; oi < g.oh; ++oi) {
    for (index_t oj = 0; oj < g.ow; ++oj) {
      real* d = dst + (oi * g.ow + oj) * g.patch();
      for (index_t ch = 0; ch < g.in_ch; ++ch) {
        for (index_t ki = 0; ki < g.k; ++ki, d += g.k) {
          const std::ptrdiff_t si = g.in_index(oi, ki);
          if (si < 0 || si >= h) {
            std::fill(d, d + g.k, 0.0);
            continue;
          }
          const real* srow = src + (ch * g.h + static_cast<index_t>(si)) * g.w;
          for (index_t kj = 0; kj < g.k; ++kj) {
            const std::ptrdiff_t sj = g.in_index(oj, kj);
            d[kj] = sj >= 0 && sj < w ? srow[sj] : 0.0;
          }
        }
      }
    }
  }
}

/// Adjoint of im2col_patches: adds one image's patch-major columns onto the
/// [in_ch, h, w] image at `dst`. The loops run in tensor::col2im_add's
/// (ch, ki, kj, oi, oj) order, so every image element receives its
/// contributions in the same sequence and the sums keep their bits.
void col2im_patches_add(const real* src, const ConvGeom& g, real* dst) {
  const auto h = static_cast<std::ptrdiff_t>(g.h);
  const auto w = static_cast<std::ptrdiff_t>(g.w);
  const index_t patch = g.patch();
  for (index_t ch = 0; ch < g.in_ch; ++ch) {
    for (index_t ki = 0; ki < g.k; ++ki) {
      for (index_t kj = 0; kj < g.k; ++kj) {
        const real* col = src + (ch * g.k + ki) * g.k + kj;
        for (index_t oi = 0; oi < g.oh; ++oi) {
          const std::ptrdiff_t si = g.in_index(oi, ki);
          if (si < 0 || si >= h) continue;
          real* drow = dst + (ch * g.h + static_cast<index_t>(si)) * g.w;
          const real* s = col + oi * g.ow * patch;
          for (index_t oj = 0; oj < g.ow; ++oj) {
            const std::ptrdiff_t sj = g.in_index(oj, kj);
            if (sj >= 0 && sj < w) drow[sj] += s[oj * patch];
          }
        }
      }
    }
  }
}

ConvGeom make_geom(index_t in_ch, index_t h, index_t w, index_t k,
                   index_t stride, index_t pad) {
  return {in_ch, h, w, k, stride, pad,
          tensor::conv_out_extent(h, k, stride, pad),
          tensor::conv_out_extent(w, k, stride, pad)};
}

/// Samples per chunk: as many as fit kChunkColumns, at least one.
index_t chunk_samples(const ConvGeom& g) {
  return std::max<index_t>(1, kChunkColumns / (g.patch() * g.pix()));
}

}  // namespace

Conv2d::Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
               index_t stride, index_t pad, common::Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      weight_("conv.weight",
              init::kaiming_uniform({out_channels, in_channels * kernel * kernel},
                                    in_channels * kernel * kernel, rng)),
      bias_("conv.bias", tensor::Tensor({out_channels})) {
  OASIS_CHECK(kernel >= 1 && stride >= 1);
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& x, bool /*training*/) {
  OASIS_CHECK_MSG(x.rank() == 4 && x.dim(1) == in_ch_,
                  "Conv2d: bad input " << tensor::to_string(x.shape()));
  const index_t batch = x.dim(0);
  const ConvGeom g = make_geom(in_ch_, x.dim(2), x.dim(3), k_, stride_, pad_);
  const index_t pix = g.pix(), patch = g.patch();
  // Copy-assignment reuses the cached storage when the geometry repeats.
  cached_input_ = x;
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.conv2d.forward.calls");
    static obs::Counter& flops = obs::counter("kernel.conv2d.forward.flops");
    calls.add(1);
    flops.add(static_cast<std::uint64_t>(2 * batch * out_ch_ * patch * pix));
  }

  tensor::Tensor y({batch, out_ch_, g.oh, g.ow});
  const real* px = x.data().data();
  const real* pw = weight_.value.data().data();
  const real* pb = bias_.value.data().data();
  real* py = y.data().data();
  // Chunks are independent: each writes its own samples' output slices.
  runtime::parallel_for(0, batch, chunk_samples(g), [&](index_t n0,
                                                        index_t n1) {
    runtime::Workspace& ws = runtime::Workspace::tls();
    runtime::Workspace::Scope scope(ws);
    const index_t rows = (n1 - n0) * pix;
    real* cols = ws.alloc(rows * patch);
    real* out = ws.alloc(rows * out_ch_);
    for (index_t n = n0; n < n1; ++n) {
      im2col_patches(px + n * g.image(), g, cols + (n - n0) * pix * patch);
    }
    // out[row, c] = Σ_r cols[row, r]·W[c, r]: one +0.0-seeded FMA chain per
    // element in ascending r, the chain the per-sample W·cols product ran.
    std::memset(out, 0, sizeof(real) * rows * out_ch_);
    tensor::gemm::run(tensor::gemm::Variant::NT, rows, patch, out_ch_, cols,
                      pw, out);
    // Back to NCHW with the bias added in the same pass.
    for (index_t n = n0; n < n1; ++n) {
      const real* out_n = out + (n - n0) * pix * out_ch_;
      for (index_t c = 0; c < out_ch_; ++c) {
        const real b = pb[c];
        real* y_row = py + (n * out_ch_ + c) * pix;
        for (index_t p = 0; p < pix; ++p) y_row[p] = out_n[p * out_ch_ + c] + b;
      }
    }
  });
  return y;
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_out) {
  return backward_impl(grad_out, /*input_grad=*/true);
}

void Conv2d::backward_params(const tensor::Tensor& grad_out) {
  backward_impl(grad_out, /*input_grad=*/false);
}

tensor::Tensor Conv2d::backward_impl(const tensor::Tensor& grad_out,
                                     bool input_grad) {
  OASIS_CHECK_MSG(cached_input_.rank() == 4,
                  "Conv2d backward: no matching forward");
  const index_t batch = cached_input_.dim(0);
  const ConvGeom g = make_geom(in_ch_, cached_input_.dim(2),
                               cached_input_.dim(3), k_, stride_, pad_);
  OASIS_CHECK_MSG(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
                      grad_out.dim(1) == out_ch_ && grad_out.dim(2) == g.oh &&
                      grad_out.dim(3) == g.ow,
                  "Conv2d backward: bad grad "
                      << tensor::to_string(grad_out.shape()));
  const index_t pix = g.pix(), patch = g.patch();
  const index_t tile_size = patch * out_ch_;
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.conv2d.backward.calls");
    static obs::Counter& flops = obs::counter("kernel.conv2d.backward.flops");
    calls.add(1);
    // The weight-gradient GEMMs, plus the input-gradient GEMM when it runs;
    // 2 flops per multiply-add.
    flops.add(static_cast<std::uint64_t>((input_grad ? 4 : 2) * batch *
                                         out_ch_ * patch * pix));
  }
  const real* px = cached_input_.data().data();
  const real* gy = grad_out.data().data();
  const real* pw = weight_.value.data().data();
  tensor::Tensor grad_x;
  if (input_grad) grad_x = tensor::Tensor(cached_input_.shape());
  real* gx = grad_x.data().data();

  runtime::Workspace& ws = runtime::Workspace::tls();
  runtime::Workspace::Scope scope(ws);
  // Per-sample weight-gradient tiles, [patch, out_ch] each, folded serially
  // after the parallel chunks so the sample order of the fold is fixed.
  real* tiles = ws.alloc(batch * tile_size);
  runtime::parallel_for(0, batch, chunk_samples(g), [&](index_t n0,
                                                        index_t n1) {
    runtime::Workspace& cws = runtime::Workspace::tls();
    runtime::Workspace::Scope chunk_scope(cws);
    const index_t rows = (n1 - n0) * pix;
    real* cols = cws.alloc(rows * patch);
    real* gyt = cws.alloc(rows * out_ch_);  // grad_out, pixel-major
    for (index_t n = n0; n < n1; ++n) {
      im2col_patches(px + n * g.image(), g, cols + (n - n0) * pix * patch);
      const real* gy_n = gy + n * out_ch_ * pix;
      real* gyt_n = gyt + (n - n0) * pix * out_ch_;
      for (index_t c = 0; c < out_ch_; ++c) {
        for (index_t p = 0; p < pix; ++p) gyt_n[p * out_ch_ + c] = gy_n[c * pix + p];
      }
    }
    // tile[r, c] = Σ_p cols[p, r]·gy[c, p], ascending p from +0.0: the chain
    // of the per-sample gy·colsᵀ product.
    for (index_t n = n0; n < n1; ++n) {
      real* tile = tiles + n * tile_size;
      std::memset(tile, 0, sizeof(real) * tile_size);
      tensor::gemm::run(tensor::gemm::Variant::TN, patch, pix, out_ch_,
                        cols + (n - n0) * pix * patch,
                        gyt + (n - n0) * pix * out_ch_, tile);
    }
    if (!input_grad) return;
    // The columns are spent; reuse their buffer for the column gradient
    // gcols[row, r] = Σ_c gy[c, row]·W[c, r], ascending c from +0.0.
    std::memset(cols, 0, sizeof(real) * rows * patch);
    tensor::gemm::run(tensor::gemm::Variant::NN, rows, out_ch_, patch, gyt, pw,
                      cols);
    for (index_t n = n0; n < n1; ++n) {
      col2im_patches_add(cols + (n - n0) * pix * patch, g, gx + n * g.image());
    }
  });

  real* gw = weight_.grad.data().data();
  real* gb = bias_.grad.data().data();
  for (index_t n = 0; n < batch; ++n) {
    const real* tile = tiles + n * tile_size;
    for (index_t c = 0; c < out_ch_; ++c) {
      real* gw_row = gw + c * patch;
      for (index_t r = 0; r < patch; ++r) gw_row[r] += tile[r * out_ch_ + c];
      const real* gy_row = gy + (n * out_ch_ + c) * pix;
      real s = 0.0;
      for (index_t p = 0; p < pix; ++p) s += gy_row[p];
      gb[c] += s;
    }
  }
  return grad_x;
}

}  // namespace oasis::nn
