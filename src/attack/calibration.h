// Attacker-side calibration from auxiliary data.
//
// Both RTF and CAH need to place activation cutoffs so that attacked neurons
// fire with a chosen probability under the victim's data distribution. The
// attack papers assume the server holds a small sample of in-distribution
// "auxiliary" data (public images); calibration reduces to empirical
// quantiles of a linear measurement over that sample.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "tensor/tensor.h"

namespace oasis::attack {

/// Evaluates the linear measurement w·flatten(x) for every image of `aux`.
std::vector<real> measure_dataset(const data::InMemoryDataset& aux,
                                  const tensor::Tensor& w);

/// Evaluates every row of `rows` [n, d] against every image of `aux` in one
/// cache-blocked, parallel pass; returns the n × |aux| values row-major, so
/// row i's values are the slice [i·|aux|, (i+1)·|aux|). Each value is one
/// ascending chain s = s + fl(w_j·x_j) from s = 0 with no contraction
/// (calibration_kernel.cpp), which is what measure_dataset compiles to at
/// -O3 for d divisible by 4 (DESIGN.md §5m); the result does not depend on
/// the thread count.
std::vector<real> measure_rows(const data::InMemoryDataset& aux,
                               const tensor::Tensor& rows);

/// Mean-brightness measurement values (w = 1/d) — RTF's scalar statistic.
std::vector<real> mean_brightness(const data::InMemoryDataset& aux);

/// Empirical quantile at level q ∈ [0,1] (linear interpolation). The input
/// is copied and sorted. Requires a non-empty sample.
real empirical_quantile(std::vector<real> sample, real q);

/// n cutoffs at levels 1/(n+1), ..., n/(n+1) of the sample — the RTF bin
/// boundaries. Sorted ascending.
std::vector<real> quantile_cutoffs(const std::vector<real>& sample,
                                   index_t n);

}  // namespace oasis::attack
