#include "core/baselines.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "obs/obs.h"

namespace oasis::core {

TopKPruning::TopKPruning(real keep_fraction) : keep_fraction_(keep_fraction) {
  OASIS_CHECK_MSG(keep_fraction_ > 0.0 && keep_fraction_ <= 1.0,
                  "keep fraction " << keep_fraction_);
}

void TopKPruning::apply(std::vector<tensor::Tensor>& gradients,
                        common::Rng& /*rng*/,
                        const fl::DefenseContext& /*ctx*/) const {
  static obs::Counter& applied = obs::counter("fl.defense.prune");
  applied.add(1);
  for (auto& g : gradients) {
    if (g.size() == 0) continue;
    const auto keep = static_cast<index_t>(
        std::max<real>(1.0, std::floor(keep_fraction_ *
                                       static_cast<real>(g.size()))));
    if (keep >= g.size()) continue;
    // Per-tensor magnitude threshold via nth_element on |g|.
    std::vector<real> magnitudes(g.size());
    for (index_t i = 0; i < g.size(); ++i) magnitudes[i] = std::abs(g[i]);
    std::nth_element(magnitudes.begin(),
                     magnitudes.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     magnitudes.end(), std::greater<real>());
    const real threshold = magnitudes[keep - 1];
    for (auto& v : g.data()) {
      if (std::abs(v) < threshold) v = 0.0;
    }
  }
}

std::string TopKPruning::name() const {
  std::ostringstream os;
  os << "prune(" << keep_fraction_ << ")";
  return os.str();
}

}  // namespace oasis::core
