#include "moo/hypervolume.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "moo/pareto.hpp"
#include "random_sets.hpp"
#include "reference_hypervolume.hpp"
#include "util/rng.hpp"

namespace moela::moo {
namespace {

TEST(Hypervolume, EmptySetIsZero) {
  EXPECT_EQ(hypervolume({}, {1.0, 1.0}), 0.0);
}

TEST(Hypervolume, SinglePointBoxVolume) {
  EXPECT_DOUBLE_EQ(hypervolume({{0.25, 0.5}}, {1.0, 1.0}), 0.75 * 0.5);
  EXPECT_DOUBLE_EQ(hypervolume({{0.0, 0.0, 0.0}}, {2.0, 2.0, 2.0}), 8.0);
}

TEST(Hypervolume, PointOutsideReferenceContributesNothing) {
  EXPECT_EQ(hypervolume({{1.5, 0.2}}, {1.0, 1.0}), 0.0);
  EXPECT_EQ(hypervolume({{1.0, 0.2}}, {1.0, 1.0}), 0.0);  // touching = zero
}

TEST(Hypervolume, TwoPointUnion2D) {
  // Boxes [0.2,1]x[0.6,1] and [0.6,1]x[0.2,1]:
  // 0.8*0.4 + 0.4*0.8 - 0.4*0.4 = 0.48
  const double hv = hypervolume({{0.2, 0.6}, {0.6, 0.2}}, {1.0, 1.0});
  EXPECT_NEAR(hv, 0.48, 1e-12);
}

TEST(Hypervolume, DominatedPointDoesNotChangeVolume) {
  const ObjectiveVector ref{1.0, 1.0, 1.0};
  const std::vector<ObjectiveVector> base{{0.2, 0.3, 0.4}, {0.5, 0.1, 0.6}};
  auto with_dominated = base;
  with_dominated.push_back({0.6, 0.4, 0.7});  // dominated by base[0]
  EXPECT_NEAR(hypervolume(base, ref), hypervolume(with_dominated, ref),
              1e-12);
}

TEST(Hypervolume, AddingNonDominatedPointIncreasesVolume) {
  const ObjectiveVector ref{1.0, 1.0};
  std::vector<ObjectiveVector> points{{0.5, 0.5}};
  const double before = hypervolume(points, ref);
  points.push_back({0.1, 0.9});
  EXPECT_GT(hypervolume(points, ref), before);
}

TEST(Hypervolume, PermutationInvariant) {
  util::Rng rng(11);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 20; ++i) {
    points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const ObjectiveVector ref{1.1, 1.1, 1.1};
  const double hv1 = hypervolume(points, ref);
  rng.shuffle(points);
  EXPECT_NEAR(hypervolume(points, ref), hv1, 1e-9);
}

TEST(Hypervolume, KnownValue3D) {
  // Three mutually non-dominated points with a hand-computable union.
  // p1=(0,0.5,0.5), p2=(0.5,0,0.5), p3=(0.5,0.5,0), ref=(1,1,1).
  // Each box has volume 1*0.5*0.5 = 0.25... computed by inclusion-exclusion:
  // pairwise intersections are (0.5,0.5,0.5)-boxes: vol 0.125 each (3 of
  // them); triple intersection also 0.125.
  // HV = 3*0.25 - 3*0.125 + 0.125 = 0.5.
  const std::vector<ObjectiveVector> points{
      {0.0, 0.5, 0.5}, {0.5, 0.0, 0.5}, {0.5, 0.5, 0.0}};
  EXPECT_NEAR(hypervolume(points, {1.0, 1.0, 1.0}), 0.5, 1e-12);
}

TEST(Hypervolume, LinearFront2DAnalytic) {
  // Dense points on f2 = 1 - f1 against ref (1,1): HV of the full region
  // above the line is 0.5; a 101-point staircase underestimates slightly.
  std::vector<ObjectiveVector> points;
  for (int i = 0; i <= 100; ++i) {
    const double f1 = i / 100.0;
    points.push_back({f1, 1.0 - f1});
  }
  const double hv = hypervolume(points, {1.0, 1.0});
  EXPECT_GT(hv, 0.49);
  EXPECT_LT(hv, 0.5 + 1e-9);
}

TEST(Hypervolume, MonotonicInReferencePoint) {
  const std::vector<ObjectiveVector> points{{0.2, 0.4}, {0.5, 0.1}};
  EXPECT_LT(hypervolume(points, {1.0, 1.0}),
            hypervolume(points, {1.2, 1.2}));
}

TEST(NormalizedHypervolume, UnitReference) {
  const std::vector<ObjectiveVector> points{{1.0, 10.0}, {3.0, 2.0}};
  const auto ideal = ideal_point(points);
  const auto nadir = nadir_point(points);
  // Normalized points: (0,1) and (1,0); ref 1.1 ->
  // HV = 1.1*0.1 + 0.1*1.1 - 0.1*0.1 = 0.21
  EXPECT_NEAR(normalized_hypervolume(points, ideal, nadir), 0.21, 1e-12);
}

TEST(Hypervolume, DimensionMismatchThrows) {
  EXPECT_THROW(hypervolume({{0.1, 0.2, 0.3}}, {1.0, 1.0}),
               std::invalid_argument);
}

// Property: for any dimension, the exact WFG result equals a Monte-Carlo
// estimate of the dominated volume.
class HvMonteCarlo : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HvMonteCarlo, MatchesMonteCarloEstimate) {
  const std::size_t m = GetParam();
  util::Rng rng(100 + m);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 12; ++i) {
    ObjectiveVector p(m);
    for (auto& v : p) v = rng.uniform();
    points.push_back(p);
  }
  const ObjectiveVector ref(m, 1.0);
  const double exact = hypervolume(points, ref);

  const int samples = 200000;
  int inside = 0;
  util::Rng mc(999 + m);
  for (int s = 0; s < samples; ++s) {
    ObjectiveVector x(m);
    for (auto& v : x) v = mc.uniform();
    for (const auto& p : points) {
      if (weakly_dominates(p, x)) {
        ++inside;
        break;
      }
    }
  }
  const double estimate = static_cast<double>(inside) / samples;
  EXPECT_NEAR(exact, estimate, 0.01) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Dims, HvMonteCarlo, ::testing::Values(2, 3, 4, 5));

// ---- Differential tests against independent oracles ------------------------

using test_support::random_set;

/// Inclusion-exclusion over every non-empty subset T of `points`:
/// HV = sum (-1)^(|T|+1) vol([max(T), ref]). Exponential, accumulated in
/// long double so the alternating sum does not lose the digits compared.
double brute_force_hypervolume(const std::vector<ObjectiveVector>& points,
                               const ObjectiveVector& ref) {
  const std::size_t n = points.size();
  const std::size_t m = ref.size();
  long double total = 0.0L;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    ObjectiveVector corner(m, -1e300);
    int members = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i & 1u) == 0) continue;
      ++members;
      for (std::size_t k = 0; k < m; ++k) {
        corner[k] = std::max(corner[k], points[i][k]);
      }
    }
    long double volume = 1.0L;
    for (std::size_t k = 0; k < m; ++k) {
      volume *= std::max(0.0L, static_cast<long double>(ref[k]) -
                                   static_cast<long double>(corner[k]));
    }
    total += members % 2 == 1 ? volume : -volume;
  }
  return static_cast<double>(total);
}

void expect_relative(double got, double want, double tolerance,
                     const std::string& what) {
  EXPECT_LE(std::abs(got - want), tolerance * std::max(std::abs(want), 1e-300))
      << what << ": got " << got << ", want " << want;
}

TEST(HypervolumeOracle, MatchesInclusionExclusion) {
  util::Rng rng(2012);
  for (std::size_t m = 1; m <= 6; ++m) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto points = random_set(rng, 1 + rng.below(12), m);
      const ObjectiveVector ref(m, 1.0);
      const double want = brute_force_hypervolume(points, ref);
      expect_relative(hypervolume(points, ref), want, 1e-12,
                      "m=" + std::to_string(m) + " trial " +
                          std::to_string(trial));
    }
  }
}

TEST(HypervolumeOracle, MatchesReferenceWfg) {
  util::Rng rng(7);
  for (std::size_t m = 2; m <= 6; ++m) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t n = trial < 10 ? 60 : 1 + rng.below(60);
      const auto points = random_set(rng, n, m);
      const ObjectiveVector ref(m, 1.0);
      const double want = reference::hypervolume(points, ref);
      expect_relative(hypervolume(points, ref), want, 1e-12,
                      "m=" + std::to_string(m) + " n=" + std::to_string(n));
    }
  }
}

TEST(HypervolumeContribution, EqualsHypervolumeDifference) {
  util::Rng rng(42);
  for (std::size_t m = 1; m <= 6; ++m) {
    for (int trial = 0; trial < 60; ++trial) {
      auto points = random_set(rng, 2 + rng.below(40), m);
      points = normalize(points, ideal_point(points), nadir_point(points));
      const ObjectiveVector candidate = points.back();
      points.pop_back();
      const ObjectiveVector ref(m, 1.1);
      auto with = points;
      with.push_back(candidate);
      const double want = hypervolume(with, ref) - hypervolume(points, ref);
      EXPECT_NEAR(hypervolume_contribution(points, candidate, ref), want,
                  1e-12)
          << "m=" << m << " trial " << trial;
    }
  }
}

TEST(HypervolumeContribution, OthersOutsideReferenceAreClipped) {
  util::Rng rng(43);
  for (std::size_t m = 1; m <= 6; ++m) {
    for (int trial = 0; trial < 40; ++trial) {
      auto points = random_set(rng, 2 + rng.below(40), m);
      const ObjectiveVector ref(m, 1.0);  // the set reaches 1.05
      const ObjectiveVector candidate(m, 0.5 * rng.uniform());
      auto with = points;
      with.push_back(candidate);
      const double want = hypervolume(with, ref) - hypervolume(points, ref);
      EXPECT_NEAR(hypervolume_contribution(points, candidate, ref), want,
                  1e-12)
          << "m=" << m << " trial " << trial;
    }
  }
}

TEST(HypervolumeContribution, DominatedOrDuplicateCandidateIsExactlyZero) {
  util::Rng rng(5);
  for (std::size_t m = 1; m <= 6; ++m) {
    for (int trial = 0; trial < 30; ++trial) {
      const auto points = random_set(rng, 1 + rng.below(40), m);
      const ObjectiveVector ref(m, 1.1);
      const auto& anchor = points[rng.below(points.size())];
      EXPECT_EQ(hypervolume_contribution(points, anchor, ref), 0.0)
          << "duplicate, m=" << m;
      ObjectiveVector worse = anchor;
      for (auto& v : worse) v += 0.25 * rng.uniform() * (1.1 - v);
      EXPECT_EQ(hypervolume_contribution(points, worse, ref), 0.0)
          << "dominated, m=" << m;
    }
  }
}

TEST(HypervolumeContribution, CandidateOutsideReferenceIsZero) {
  const std::vector<ObjectiveVector> others{{0.5, 0.5}};
  EXPECT_EQ(hypervolume_contribution(others, {1.2, 0.1}, {1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume_contribution({}, {0.5, 0.25}, {1.0, 1.0}),
                   0.375);
}

}  // namespace
}  // namespace moela::moo
