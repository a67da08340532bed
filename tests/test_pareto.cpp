#include "moo/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "moo/objective.hpp"
#include "random_sets.hpp"
#include "util/rng.hpp"

namespace moela::moo {
namespace {

TEST(Dominance, BasicRelations) {
  const ObjectiveVector a{1.0, 1.0};
  const ObjectiveVector b{2.0, 2.0};
  const ObjectiveVector c{0.5, 3.0};
  EXPECT_EQ(compare(a, b), Dominance::kDominates);
  EXPECT_EQ(compare(b, a), Dominance::kDominatedBy);
  EXPECT_EQ(compare(a, c), Dominance::kNonDominated);
  EXPECT_EQ(compare(a, a), Dominance::kEqual);
}

TEST(Dominance, WeakDominanceIncludesEqual) {
  const ObjectiveVector a{1.0, 2.0};
  EXPECT_TRUE(weakly_dominates(a, a));
  EXPECT_TRUE(weakly_dominates(a, ObjectiveVector{1.0, 3.0}));
  EXPECT_FALSE(weakly_dominates(a, ObjectiveVector{0.9, 3.0}));
}

TEST(Dominance, StrictRequiresOneStrictImprovement) {
  EXPECT_FALSE(dominates(ObjectiveVector{1.0, 2.0}, ObjectiveVector{1.0, 2.0}));
  EXPECT_TRUE(dominates(ObjectiveVector{1.0, 1.9}, ObjectiveVector{1.0, 2.0}));
}

TEST(ParetoFilter, KeepsOnlyNonDominated) {
  const std::vector<ObjectiveVector> points{
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 3.5}, {4.0, 1.0}, {2.5, 2.5}};
  const auto keep = pareto_filter(points);
  // {3.0, 3.5} is dominated by {2.5, 2.5}; others are non-dominated.
  EXPECT_EQ(keep.size(), 4u);
  for (auto i : keep) EXPECT_NE(i, 2u);
}

TEST(ParetoFilter, DuplicatesKeepFirstOnly) {
  const std::vector<ObjectiveVector> points{{1.0, 1.0}, {1.0, 1.0}};
  const auto keep = pareto_filter(points);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 0u);
}

TEST(NonDominatedSort, FrontsAreOrderedLayers) {
  // Three clear layers along the diagonal.
  const std::vector<ObjectiveVector> points{
      {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}, {1.5, 0.5}};
  const auto fronts = non_dominated_sort(points);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0].size(), 2u);  // {1,1} and {1.5,0.5}
  EXPECT_EQ(fronts[1].size(), 1u);
  EXPECT_EQ(fronts[2].size(), 1u);
}

TEST(NonDominatedSort, AllIncomparableIsOneFront) {
  const std::vector<ObjectiveVector> points{
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};
  const auto fronts = non_dominated_sort(points);
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0].size(), 4u);
}

TEST(NonDominatedSort, CoversEveryIndexExactlyOnce) {
  util::Rng rng(3);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const auto fronts = non_dominated_sort(points);
  std::vector<int> seen(points.size(), 0);
  for (const auto& f : fronts) {
    for (auto i : f) ++seen[i];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(NonDominatedSort, NoMemberDominatedWithinItsFront) {
  util::Rng rng(5);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.uniform(), rng.uniform()});
  }
  const auto fronts = non_dominated_sort(points);
  for (const auto& f : fronts) {
    for (auto i : f) {
      for (auto j : f) {
        EXPECT_FALSE(dominates(points[j], points[i]));
      }
    }
  }
}

TEST(CrowdingDistance, BoundaryPointsInfinite) {
  const std::vector<ObjectiveVector> points{
      {0.0, 4.0}, {1.0, 3.0}, {2.0, 2.0}, {4.0, 0.0}};
  std::vector<std::size_t> front{0, 1, 2, 3};
  const auto d = crowding_distance(points, front);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(d[0], inf);
  EXPECT_EQ(d[3], inf);
  EXPECT_GT(d[1], 0.0);
  EXPECT_LT(d[1], inf);
}

TEST(CrowdingDistance, TwoOrFewerAllInfinite) {
  const std::vector<ObjectiveVector> points{{0.0, 1.0}, {1.0, 0.0}};
  const auto d = crowding_distance(points, {0, 1});
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(d[0], inf);
  EXPECT_EQ(d[1], inf);
}

TEST(CrowdingDistance, DenserRegionsScoreLower) {
  // Points 1 and 2 are close together; point 3 is isolated.
  const std::vector<ObjectiveVector> points{
      {0.0, 10.0}, {1.0, 9.0}, {1.2, 8.8}, {5.0, 5.0}, {10.0, 0.0}};
  const auto d = crowding_distance(points, {0, 1, 2, 3, 4});
  EXPECT_LT(d[1], d[3]);
  EXPECT_LT(d[2], d[3]);
}

TEST(IdealNadir, ComponentWiseExtremes) {
  const std::vector<ObjectiveVector> points{{1.0, 5.0}, {3.0, 2.0}};
  EXPECT_EQ(ideal_point(points), (ObjectiveVector{1.0, 2.0}));
  EXPECT_EQ(nadir_point(points), (ObjectiveVector{3.0, 5.0}));
}

TEST(IdealNadir, EmptyThrows) {
  EXPECT_THROW(ideal_point({}), std::invalid_argument);
  EXPECT_THROW(nadir_point({}), std::invalid_argument);
}

TEST(Normalize, MapsIntoUnitBox) {
  const std::vector<ObjectiveVector> points{{1.0, 10.0}, {3.0, 20.0},
                                            {2.0, 15.0}};
  const auto ideal = ideal_point(points);
  const auto nadir = nadir_point(points);
  const auto norm = normalize(points, ideal, nadir);
  EXPECT_DOUBLE_EQ(norm[0][0], 0.0);
  EXPECT_DOUBLE_EQ(norm[1][0], 1.0);
  EXPECT_DOUBLE_EQ(norm[2][0], 0.5);
  EXPECT_DOUBLE_EQ(norm[2][1], 0.5);
}

TEST(Normalize, DegenerateDimensionMapsToZero) {
  const std::vector<ObjectiveVector> points{{5.0, 1.0}, {5.0, 2.0}};
  const auto norm =
      normalize(points, ideal_point(points), nadir_point(points));
  EXPECT_DOUBLE_EQ(norm[0][0], 0.0);
  EXPECT_DOUBLE_EQ(norm[1][0], 0.0);
}

class ParetoFilterSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParetoFilterSweep, FilterResultIsMutuallyNonDominated) {
  util::Rng rng(GetParam());
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 50; ++i) {
    ObjectiveVector p;
    for (std::size_t m = 0; m < 2 + GetParam() % 4; ++m) {
      p.push_back(rng.uniform());
    }
    points.push_back(p);
  }
  const auto keep = pareto_filter(points);
  EXPECT_FALSE(keep.empty());
  for (auto i : keep) {
    for (auto j : keep) {
      EXPECT_FALSE(dominates(points[i], points[j]) && i != j &&
                   dominates(points[j], points[i]));
      EXPECT_FALSE(dominates(points[j], points[i]));
    }
  }
  // Every dropped point is dominated by (or equal to) some kept point.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (std::find(keep.begin(), keep.end(), i) != keep.end()) continue;
    bool covered = false;
    for (auto j : keep) {
      if (weakly_dominates(points[j], points[i])) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "dropped point " << i << " not covered";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoFilterSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- Differential tests against the O(n^2) definition ----------------------

using test_support::brute_dominates;
using test_support::random_set;

TEST(ParetoFilterOracle, MatchesBruteForceScan) {
  util::Rng rng(31);
  for (std::size_t m = 2; m <= 6; ++m) {
    for (int trial = 0; trial < 60; ++trial) {
      const auto points = random_set(rng, 1 + rng.below(60), m);
      // Kept: dominated by nobody and not a repeat of an earlier point, in
      // input order.
      std::vector<std::size_t> want;
      for (std::size_t i = 0; i < points.size(); ++i) {
        bool keep = true;
        for (std::size_t j = 0; j < points.size() && keep; ++j) {
          if (brute_dominates(points[j], points[i])) keep = false;
          if (j < i && points[j] == points[i]) keep = false;
        }
        if (keep) want.push_back(i);
      }
      EXPECT_EQ(pareto_filter(points), want) << "m=" << m;
    }
  }
}

TEST(NonDominatedSortOracle, FrontsAreTheBruteForceLayers) {
  util::Rng rng(32);
  for (std::size_t m = 2; m <= 6; ++m) {
    for (int trial = 0; trial < 60; ++trial) {
      const auto points = random_set(rng, 1 + rng.below(60), m);
      const auto fronts = non_dominated_sort(points);
      // Every index lands in exactly one front.
      std::vector<int> seen(points.size(), 0);
      for (const auto& front : fronts) {
        ASSERT_FALSE(front.empty());
        for (auto i : front) ++seen[i];
      }
      EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                static_cast<std::ptrdiff_t>(points.size()));
      for (std::size_t k = 0; k < fronts.size(); ++k) {
        for (auto i : fronts[k]) {
          for (auto j : fronts[k]) {
            EXPECT_FALSE(brute_dominates(points[j], points[i]))
                << "front " << k << " is not mutually non-dominated";
          }
          if (k == 0) continue;
          bool covered = false;
          for (auto j : fronts[k - 1]) {
            covered = covered || brute_dominates(points[j], points[i]);
          }
          EXPECT_TRUE(covered) << "point " << i << " in front " << k
                               << " is dominated by nothing in front "
                               << k - 1;
        }
      }
    }
  }
}

}  // namespace
}  // namespace moela::moo
