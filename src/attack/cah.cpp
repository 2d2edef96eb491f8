#include "attack/cah.h"

#include <cmath>

#include "nn/dense.h"
#include "obs/obs.h"

namespace oasis::attack {

CahAttack::CahAttack(nn::ImageSpec spec, index_t neurons, real target_rate,
                     const data::InMemoryDataset& aux, std::uint64_t seed,
                     CahWeightMode mode)
    : spec_(spec), neurons_(neurons), target_rate_(target_rate), mode_(mode) {
  OASIS_CHECK(neurons_ >= 1);
  OASIS_CHECK_MSG(target_rate_ > 0.0 && target_rate_ < 1.0,
                  "activation rate " << target_rate_);
  const index_t d = spec_.pixels();
  common::Rng rng(seed);
  // Row scale 1/√d keeps pre-activations O(1) regardless of image size.
  rows_ = tensor::Tensor::randn({neurons_, d}, rng, 0.0,
                                1.0 / std::sqrt(static_cast<real>(d)));
  thresholds_.reserve(neurons_);

  if (mode_ == CahWeightMode::kQuantileCalibrated) {
    // All n × |aux| measurements in one pass; row i's are a contiguous slice.
    const auto values = measure_rows(aux, rows_);
    const index_t m = aux.size();
    for (index_t i = 0; i < neurons_; ++i) {
      const real* first = values.data() + i * m;
      thresholds_.push_back(
          empirical_quantile({first, first + m}, 1.0 - target_rate_));
    }
    return;
  }

  // kTrapHalfNegative: make all entries positive-magnitude, negate a random
  // half, and rescale the negated half by γ so that the (1−ρ) quantile of
  // r·x over aux data sits at zero — then a zero bias realizes the target
  // activation rate. γ is found per row by a short bisection.
  for (index_t i = 0; i < neurons_; ++i) {
    auto row = rows_.data().subspan(i * d, d);
    for (auto& v : row) v = std::abs(v);
    // Choose the negated half.
    auto half = common::Rng(seed ^ (0x5A5A + i))
                    .sample_without_replacement(d, d / 2);
    std::vector<bool> negated(d, false);
    for (const auto j : half) negated[j] = true;

    const auto quantile_at = [&](real gamma) {
      tensor::Tensor probe({d});
      for (index_t j = 0; j < d; ++j) {
        probe[j] = negated[j] ? -gamma * row[j] : row[j];
      }
      return empirical_quantile(measure_dataset(aux, probe),
                                1.0 - target_rate_);
    };
    real lo = 0.0, hi = 16.0;  // quantile_at is decreasing in γ
    for (int iter = 0; iter < 48; ++iter) {
      const real mid = 0.5 * (lo + hi);
      (quantile_at(mid) > 0.0 ? lo : hi) = mid;
    }
    const real gamma = 0.5 * (lo + hi);
    for (index_t j = 0; j < d; ++j) {
      if (negated[j]) row[j] *= -gamma;
    }
    thresholds_.push_back(0.0);  // zero bias: the stealthy part of the trick
  }
}

void CahAttack::implant(nn::Sequential& model) {
  nn::Dense& malicious = detail::find_first_dense(model);
  OASIS_CHECK_MSG(malicious.in_features() == spec_.pixels() &&
                      malicious.out_features() == neurons_,
                  "CAH implant: host Dense is " << malicious.in_features()
                                                << "x"
                                                << malicious.out_features());
  malicious.weight().value = rows_;
  for (index_t i = 0; i < neurons_; ++i) {
    malicious.bias().value[i] = -thresholds_[i];
  }
  weight_param_index_ = detail::first_dense_param_index(model);
  implanted_ = true;
}

std::vector<tensor::Tensor> CahAttack::reconstruct(
    const std::vector<tensor::Tensor>& gradients) const {
  OASIS_CHECK_MSG(implanted_, "reconstruct() before implant()");
  OASIS_CHECK_MSG(weight_param_index_ + 1 < gradients.size(),
                  "gradient list too short");
  const tensor::Tensor& gw = gradients[weight_param_index_];
  const tensor::Tensor& gb = gradients[weight_param_index_ + 1];
  const index_t d = spec_.pixels();
  OASIS_CHECK_MSG(gw.rank() == 2 && gw.dim(0) == neurons_ && gw.dim(1) == d &&
                      gb.rank() == 1 && gb.dim(0) == neurons_,
                  "unexpected malicious-layer gradient shapes "
                      << tensor::to_string(gw.shape()) << " / "
                      << tensor::to_string(gb.shape()));

  real max_abs = 0.0;
  for (index_t i = 0; i < neurons_; ++i)
    max_abs = std::max(max_abs, std::abs(gb[i]));
  const real eps = std::max(1e-14, 1e-9 * max_abs);

  std::vector<tensor::Tensor> candidates;
  const tensor::Shape image_shape{spec_.channels, spec_.height, spec_.width};
  for (index_t i = 0; i < neurons_; ++i) {
    if (std::abs(gb[i]) <= eps) continue;  // neuron never fired
    tensor::Tensor img(image_shape);
    auto out = img.data();
    auto wr = gw.data();
    for (index_t j = 0; j < d; ++j) out[j] = wr[i * d + j] / gb[i];
    candidates.push_back(std::move(img));
  }
  // A fired trap is a neuron whose bias gradient carries mass — the CAH
  // analogue of RTF's leaked bin (Fig. 4/10 activation-hit accounting).
  static obs::Counter& calls = obs::counter("attack.cah.reconstruct_calls");
  static obs::Counter& fired = obs::counter("attack.cah.traps_fired");
  static obs::Counter& total = obs::counter("attack.cah.traps_total");
  calls.add(1);
  fired.add(candidates.size());
  total.add(neurons_);
  return candidates;
}

}  // namespace oasis::attack
