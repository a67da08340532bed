// Fixed-seed random objective sets for the differential tests of the
// Pareto and hypervolume kernels.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "moo/objective.hpp"
#include "util/rng.hpp"

namespace moela::test_support {

/// A random m-objective set of `n` points. Half the sets spread their
/// points near a simplex-like front (mostly mutually non-dominated, the
/// expensive case for hypervolume); the others draw uniformly (mostly
/// dominated). Coordinates are snapped to a coarse grid with probability
/// 1/4 (per-coordinate ties), about one point in eight repeats an earlier
/// point exactly, and coordinates reach up to 1.05, so a reference point
/// of 1 clips some of them.
inline std::vector<moo::ObjectiveVector> random_set(util::Rng& rng,
                                                    std::size_t n,
                                                    std::size_t m) {
  const bool front = rng.chance(0.5);
  std::vector<moo::ObjectiveVector> points;
  for (std::size_t i = 0; i < n; ++i) {
    if (!points.empty() && rng.chance(0.125)) {
      points.push_back(points[rng.below(points.size())]);
      continue;
    }
    moo::ObjectiveVector p(m);
    double sum = 0.0;
    for (auto& v : p) {
      v = front ? -std::log(1.0 - rng.uniform()) : rng.uniform(0.0, 1.05);
      sum += v;
    }
    for (auto& v : p) {
      if (front) v = v / sum + 0.05 * rng.uniform();
      if (rng.chance(0.25)) v = std::floor(v * 8.0) / 8.0;
    }
    points.push_back(std::move(p));
  }
  return points;
}

/// The O(m) definition of Pareto dominance (minimization), written out
/// independently of moo::compare.
inline bool brute_dominates(const moo::ObjectiveVector& a,
                            const moo::ObjectiveVector& b) {
  bool strictly = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly = true;
  }
  return strictly;
}

}  // namespace moela::test_support
