// Test oracle: the WFG hypervolume as it was before the flat-storage
// rewrite, frozen verbatim apart from its namespace and `inline` linkage.
// Vector-of-vectors storage, an O(n^2) compare()-based limit-set prune and
// a full m-dimensional recursion that re-sorts on the last objective at
// every level. Slow and obviously correct; do not optimize it.
#pragma once

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "moo/objective.hpp"
#include "moo/pareto.hpp"

namespace moela::moo::reference {

namespace detail {

using PointSet = std::vector<ObjectiveVector>;

/// 1-D hypervolume: the best (smallest) value's gap to the reference.
inline double hv1(const PointSet& ps, double ref) {
  double best = ref;
  for (const auto& p : ps) best = std::min(best, p[0]);
  return std::max(0.0, ref - best);
}

/// 2-D hypervolume in O(n log n): sweep points by first coordinate.
inline double hv2(PointSet ps, const ObjectiveVector& ref) {
  // Clip away points that do not dominate the reference point at all.
  std::erase_if(ps, [&](const ObjectiveVector& p) {
    return p[0] >= ref[0] || p[1] >= ref[1];
  });
  if (ps.empty()) return 0.0;
  std::sort(ps.begin(), ps.end(), [](const auto& a, const auto& b) {
    if (a[0] != b[0]) return a[0] < b[0];
    return a[1] < b[1];
  });
  double volume = 0.0;
  double prev_y = ref[1];
  for (const auto& p : ps) {
    if (p[1] < prev_y) {
      volume += (ref[0] - p[0]) * (prev_y - p[1]);
      prev_y = p[1];
    }
  }
  return volume;
}

/// Inclusive hypervolume of a single point: volume of the box [p, ref].
inline double inclusive_hv(const ObjectiveVector& p,
                           const ObjectiveVector& ref) {
  double v = 1.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double side = ref[i] - p[i];
    if (side <= 0.0) return 0.0;
    v *= side;
  }
  return v;
}

/// "limit set" of WFG: each remaining point is worsened (component-wise max)
/// with p; dominated members of the result are pruned before recursion.
inline PointSet limit_set(const PointSet& ps, std::size_t begin,
                          const ObjectiveVector& p) {
  PointSet out;
  out.reserve(ps.size() - begin);
  for (std::size_t j = begin; j < ps.size(); ++j) {
    ObjectiveVector q(p.size());
    for (std::size_t k = 0; k < p.size(); ++k) {
      q[k] = std::max(ps[j][k], p[k]);
    }
    out.push_back(std::move(q));
  }
  // Prune dominated points: they contribute nothing to the union volume and
  // shrinking the set is where WFG gets its speed.
  PointSet pruned;
  for (std::size_t i = 0; i < out.size(); ++i) {
    bool keep = true;
    for (std::size_t j = 0; j < out.size() && keep; ++j) {
      if (i == j) continue;
      const Dominance d = compare(out[j], out[i]);
      if (d == Dominance::kDominates ||
          (d == Dominance::kEqual && j < i)) {
        keep = false;
      }
    }
    if (keep) pruned.push_back(out[i]);
  }
  return pruned;
}

inline double wfg(PointSet ps, const ObjectiveVector& ref);

/// Exclusive hypervolume of ps[i] w.r.t. ps[i+1..]: inclusive volume minus
/// the part already covered by the rest.
inline double exclusive_hv(const PointSet& ps, std::size_t i,
                           const ObjectiveVector& ref) {
  const double inc = inclusive_hv(ps[i], ref);
  if (inc == 0.0 || i + 1 == ps.size()) return inc;
  return inc - wfg(limit_set(ps, i + 1, ps[i]), ref);
}

inline double wfg(PointSet ps, const ObjectiveVector& ref) {
  if (ps.empty()) return 0.0;
  const std::size_t m = ref.size();
  if (m == 1) return hv1(ps, ref[0]);
  if (m == 2) return hv2(std::move(ps), ref);
  // Sorting by the last objective (descending contribution order) keeps the
  // limit sets small.
  std::sort(ps.begin(), ps.end(), [m](const auto& a, const auto& b) {
    return a[m - 1] > b[m - 1];
  });
  double volume = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    volume += exclusive_hv(ps, i, ref);
  }
  return volume;
}

}  // namespace detail

inline double hypervolume(const std::vector<ObjectiveVector>& points,
                          const ObjectiveVector& ref) {
  if (points.empty()) return 0.0;
  const std::size_t m = ref.size();
  detail::PointSet clipped;
  clipped.reserve(points.size());
  for (const auto& p : points) {
    if (p.size() != m) {
      throw std::invalid_argument("hypervolume: dimension mismatch");
    }
    if (detail::inclusive_hv(p, ref) > 0.0) clipped.push_back(p);
  }
  if (clipped.empty()) return 0.0;
  // Reduce to the non-dominated subset first; dominated points are redundant.
  const auto keep = pareto_filter(clipped);
  detail::PointSet front;
  front.reserve(keep.size());
  for (std::size_t i : keep) front.push_back(clipped[i]);
  return detail::wfg(std::move(front), ref);
}

}  // namespace moela::moo::reference
