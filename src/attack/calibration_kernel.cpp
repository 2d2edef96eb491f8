// measure_rows: every trap row against every aux image in one blocked pass.
//
// The build pins -ffp-contract=off on this translation unit
// (src/attack/CMakeLists.txt): each output stays the chain
// s = s + fl(w_j·x_j) in ascending j, which is bit for bit what
// measure_dataset's vectorised multiplies and in-order scalar adds produce.
// Blocking changes only which outputs advance together, never the order of
// one output's adds, so the values are independent of the tiling, the
// parallel chunking and the thread count (DESIGN.md §5m).
#include <algorithm>
#include <cstring>

#include "attack/calibration.h"
#include "common/error.h"
#include "runtime/parallel.h"

namespace oasis::attack {
namespace {

constexpr index_t kRows = 4;     // trap rows per register tile
constexpr index_t kCols = 8;     // aux images per register tile
constexpr index_t kDepth = 512;  // pixels per cache block

/// kCols chains side by side. GCC vector arithmetic is element-wise IEEE,
/// lowered to whatever SIMD width the target has; spelled out, because left
/// to itself GCC 12 vectorises the pixel loop as in-order lane reductions.
using Lanes = real __attribute__((vector_size(kCols * sizeof(real))));

/// Advances a kRows × kCols tile of chains by `depth` pixels. `w[r]` points
/// at row r's first pixel of the block; `panel` holds the block's pixels
/// image-minor ([depth][kCols]).
void advance_tile(const real* const (&w)[kRows], const real* panel,
                  index_t depth, Lanes (&acc)[kRows]) {
  for (index_t j = 0; j < depth; ++j) {
    Lanes x;
    std::memcpy(&x, panel + j * kCols, sizeof x);
    for (index_t r = 0; r < kRows; ++r) acc[r] = acc[r] + w[r][j] * x;
  }
}

}  // namespace

std::vector<real> measure_rows(const data::InMemoryDataset& aux,
                               const tensor::Tensor& rows) {
  OASIS_CHECK(!aux.empty());
  const index_t d = aux.image_dim();
  OASIS_CHECK_MSG(rows.rank() == 2 && rows.dim(1) == d,
                  "measurement rows " << tensor::to_string(rows.shape())
                                      << " vs image dim " << d);
  const index_t n = rows.dim(0);
  const index_t m = aux.size();
  const index_t col_tiles = (m + kCols - 1) / kCols;
  const index_t row_tiles = (n + kRows - 1) / kRows;
  const real* w = rows.data().data();

  std::vector<real> out(n * m, 0.0);
  // One depth block of every image, image-minor in kCols-wide panels. Lanes
  // past the last image are never written back: each lane is its own chain,
  // so whatever they hold cannot reach a stored value.
  std::vector<real> block(col_tiles * kDepth * kCols);
  for (index_t j0 = 0; j0 < d; j0 += kDepth) {
    const index_t depth = std::min(kDepth, d - j0);
    for (index_t k = 0; k < m; ++k) {
      const real* x = aux.at(k).image.data().data() + j0;
      real* panel = block.data() + (k / kCols) * depth * kCols + k % kCols;
      for (index_t j = 0; j < depth; ++j) panel[j * kCols] = x[j];
    }
    // Each row tile owns its rows of `out`: chunks write disjoint ranges.
    runtime::parallel_for(0, row_tiles, [&](index_t t0, index_t t1) {
      for (index_t t = t0; t < t1; ++t) {
        const index_t r0 = t * kRows;
        const index_t nr = std::min(kRows, n - r0);
        // A ragged tile repeats its last row; the copies are not stored.
        const real* wr[kRows];
        for (index_t r = 0; r < kRows; ++r) {
          wr[r] = w + (r0 + std::min(r, nr - 1)) * d + j0;
        }
        for (index_t p = 0; p < col_tiles; ++p) {
          const index_t c0 = p * kCols;
          const index_t nc = std::min(kCols, m - c0);
          Lanes acc[kRows] = {};
          for (index_t r = 0; r < nr; ++r) {
            const real* o = out.data() + (r0 + r) * m + c0;
            for (index_t c = 0; c < nc; ++c) acc[r][c] = o[c];
          }
          advance_tile(wr, block.data() + p * depth * kCols, depth, acc);
          for (index_t r = 0; r < nr; ++r) {
            real* o = out.data() + (r0 + r) * m + c0;
            for (index_t c = 0; c < nc; ++c) o[c] = acc[r][c];
          }
        }
      }
    });
  }
  return out;
}

}  // namespace oasis::attack
