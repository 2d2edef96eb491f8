// Baseline defenses from the paper's Related Work, for ablation comparison.
//
//  * DP-SGD-style Gaussian mechanism (Abadi et al. 2016) — clip the update's
//    global L2 norm to C and add N(0, (σ·C)²) noise. It is the defense stack
//    "clip:C,noise:σ·C" (fl/defense.h); the paper (and Fowl / Boenisch)
//    argue the noise needed to blind gradient inversion destroys model
//    utility, and `ablation_baselines` measures both sides.
//  * Gradient pruning / sparsification (Zhu et al. 2019; Sun et al. 2021) —
//    zero all but the largest-magnitude fraction of gradient entries. The
//    paper notes reconstructions remain recognizable even at heavy pruning.
#pragma once

#include "fl/defense.h"

namespace oasis::core {

/// Keeps only the top `keep_fraction` of entries by magnitude in each
/// gradient tensor (per-tensor threshold), zeroing the rest. Deterministic:
/// the stage's rng is never drawn.
class TopKPruning : public fl::Defense {
 public:
  explicit TopKPruning(real keep_fraction);

  void apply(std::vector<tensor::Tensor>& gradients, common::Rng& rng,
             const fl::DefenseContext& ctx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] real keep_fraction() const { return keep_fraction_; }

 private:
  real keep_fraction_;
};

}  // namespace oasis::core
