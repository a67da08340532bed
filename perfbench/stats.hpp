// The benchmark's own arithmetic: medians, the tail-percentile rule, PHV
// against fixed bounds, and the metric set the result line is built from.
// Everything here is covered by selftest.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "moo/hypervolume.hpp"
#include "moo/objective.hpp"

namespace perfbench {

namespace moo = moela::moo;

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Median (mean of the middle pair for an even count); NaN when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Geometric mean of positive samples; NaN when empty. Run times of
/// different instances spread over a multiplicative range, and on that
/// scale it is a steadier centre than the median of few samples.
inline double geometric_mean(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; below that the value is one or two outliers, not a tail.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `v`, or NaN when fewer than
/// kTailSamples samples rank above it (p90 therefore needs 100 samples).
inline double tail_percentile(std::vector<double> v, double p) {
  const std::size_t n = v.size();
  if (n == 0) return kNaN;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0 || n - rank < kTailSamples) return kNaN;
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

/// Fixed normalization bounds for one workload's objective space, stored
/// with the benchmark so a PHV never depends on the run it scores.
struct PhvBox {
  moo::ObjectiveVector lower;
  moo::ObjectiveVector upper;
};

/// Reference coordinate of the normalized space (the library convention).
inline constexpr double kPhvRef = 1.1;

/// `points` with `box` mapped onto [0,1]^m; coordinates below the lower
/// bound clip to 0.
inline std::vector<moo::ObjectiveVector> normalize(
    const std::vector<moo::ObjectiveVector>& points, const PhvBox& box) {
  const std::size_t m = box.lower.size();
  std::vector<moo::ObjectiveVector> scaled;
  scaled.reserve(points.size());
  for (const auto& p : points) {
    moo::ObjectiveVector q(m);
    for (std::size_t i = 0; i < m; ++i) {
      q[i] = std::max(0.0, (p[i] - box.lower[i]) /
                               (box.upper[i] - box.lower[i]));
    }
    scaled.push_back(std::move(q));
  }
  return scaled;
}

/// PHV of the normalized `points` against the reference point kPhvRef^m,
/// as a share of the reference box's volume — so the value lies in [0, 1].
inline double box_phv(const std::vector<moo::ObjectiveVector>& points,
                      const PhvBox& box) {
  const std::size_t m = box.lower.size();
  return moo::hypervolume(normalize(points, box),
                          moo::ObjectiveVector(m, kPhvRef)) /
         std::pow(kPhvRef, static_cast<double>(m));
}

/// First point where the piecewise-linear curve (xs[i], ys[i]) reaches
/// `target`, interpolated in x; NaN when it never does. xs ascending.
inline double first_crossing(const std::vector<double>& xs,
                             const std::vector<double>& ys, double target) {
  for (std::size_t i = 0; i < ys.size(); ++i) {
    if (ys[i] < target) continue;
    if (i == 0) return xs[0];
    const double f = (target - ys[i - 1]) / (ys[i] - ys[i - 1]);
    return xs[i - 1] + f * (xs[i] - xs[i - 1]);
  }
  return kNaN;
}

/// Value of the piecewise-linear curve (xs, ys) at `x` (clamped to its
/// ends). xs ascending and non-empty.
inline double interpolate(const std::vector<double>& xs,
                          const std::vector<double>& ys, double x) {
  if (x <= xs.front()) return ys.front();
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (x <= xs[i]) {
      const double f = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
      return ys[i - 1] + f * (ys[i] - ys[i - 1]);
    }
  }
  return ys.back();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics of one invocation, in the order they are added.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Adds `name` = numerator / base together with its base as its own
  /// metric, so a ratio is never read without the count it divides by.
  void add_ratio(std::string name, double numerator, std::string base_name,
                 double base, std::string base_unit) {
    add(std::move(name), base > 0.0 ? numerator / base : kNaN, "ratio");
    add(std::move(base_name), base, std::move(base_unit));
  }

  const std::vector<Metric>& all() const { return metrics_; }

  const Metric* find(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
