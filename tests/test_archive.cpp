#include "moo/archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/archive_search.hpp"
#include "moo/pareto.hpp"
#include "problems/zdt.hpp"
#include "random_sets.hpp"
#include "util/rng.hpp"

namespace moela::moo {
namespace {

TEST(ParetoArchive, AcceptsFirstPoint) {
  ParetoArchive a;
  EXPECT_TRUE(a.insert({1.0, 2.0}, 0));
  EXPECT_EQ(a.size(), 1u);
}

TEST(ParetoArchive, RejectsDominatedAndEqual) {
  ParetoArchive a;
  a.insert({1.0, 1.0}, 0);
  EXPECT_FALSE(a.insert({2.0, 2.0}, 1));  // dominated
  EXPECT_FALSE(a.insert({1.0, 1.0}, 2));  // duplicate
  EXPECT_EQ(a.size(), 1u);
}

TEST(ParetoArchive, RemovesNewlyDominated) {
  ParetoArchive a;
  a.insert({2.0, 2.0}, 0);
  a.insert({3.0, 1.0}, 1);
  EXPECT_TRUE(a.insert({1.0, 1.0}, 2));  // dominates both
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.entries()[0].id, 2u);
}

TEST(ParetoArchive, KeepsIncomparablePoints) {
  ParetoArchive a;
  EXPECT_TRUE(a.insert({1.0, 3.0}, 0));
  EXPECT_TRUE(a.insert({3.0, 1.0}, 1));
  EXPECT_TRUE(a.insert({2.0, 2.0}, 2));
  EXPECT_EQ(a.size(), 3u);
}

TEST(ParetoArchive, WouldAcceptMirrorsInsert) {
  ParetoArchive a;
  a.insert({1.0, 1.0}, 0);
  EXPECT_FALSE(a.would_accept({1.5, 1.5}));
  EXPECT_TRUE(a.would_accept({0.5, 2.0}));
  EXPECT_EQ(a.size(), 1u);  // would_accept must not mutate
}

TEST(ParetoArchive, CapacityEvictsMostCrowded) {
  ParetoArchive a(3);
  a.insert({0.0, 10.0}, 0);
  a.insert({10.0, 0.0}, 1);
  a.insert({5.0, 5.0}, 2);
  // 4th point lands close to (5,5): one of the crowded middles is evicted,
  // boundary points survive.
  a.insert({4.9, 5.2}, 3);
  EXPECT_EQ(a.size(), 3u);
  bool has0 = false, has1 = false;
  for (const auto& e : a.entries()) {
    if (e.id == 0) has0 = true;
    if (e.id == 1) has1 = true;
  }
  EXPECT_TRUE(has0);
  EXPECT_TRUE(has1);
}

TEST(ParetoArchive, ContentAlwaysMutuallyNonDominated) {
  util::Rng rng(3);
  ParetoArchive a(20);
  for (int i = 0; i < 500; ++i) {
    a.insert({rng.uniform(), rng.uniform(), rng.uniform()}, i);
  }
  const auto points = a.objective_set();
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(dominates(points[i], points[j]));
    }
  }
  EXPECT_LE(a.size(), 20u);
}

TEST(ParetoArchive, ClearEmpties) {
  ParetoArchive a;
  a.insert({1.0}, 0);
  a.clear();
  EXPECT_TRUE(a.empty());
}

// ---- Differential tests against the O(n^2) definition ----------------------

using test_support::brute_dominates;
using test_support::random_set;

/// The distinct non-dominated members of `points`, sorted.
std::vector<ObjectiveVector> brute_front(
    const std::vector<ObjectiveVector>& points) {
  std::vector<ObjectiveVector> front;
  for (const auto& p : points) {
    bool dominated = false;
    for (const auto& q : points) dominated = dominated || brute_dominates(q, p);
    if (!dominated) front.push_back(p);
  }
  std::sort(front.begin(), front.end());
  front.erase(std::unique(front.begin(), front.end()), front.end());
  return front;
}

void expect_mutually_non_dominated(const std::vector<ObjectiveVector>& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(brute_dominates(set[j], set[i]));
      EXPECT_NE(set[j], set[i]) << "duplicate archive member";
    }
  }
}

std::vector<ObjectiveVector> sorted(std::vector<ObjectiveVector> set) {
  std::sort(set.begin(), set.end());
  return set;
}

TEST(ParetoArchiveOracle, InsertKeepsTheBruteForceFront) {
  util::Rng rng(41);
  for (std::size_t m = 2; m <= 6; ++m) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto points = random_set(rng, 1 + rng.below(60), m);
      ParetoArchive unbounded;
      ParetoArchive bounded(8);
      for (std::size_t i = 0; i < points.size(); ++i) {
        unbounded.insert(points[i], i);
        bounded.insert(points[i], i);
        expect_mutually_non_dominated(bounded.objective_set());
      }
      EXPECT_EQ(sorted(unbounded.objective_set()), brute_front(points))
          << "m=" << m;
      EXPECT_LE(bounded.size(), 8u);
    }
  }
}

TEST(DesignArchiveOracle, InsertKeepsTheBruteForceFront) {
  using Zdt = problems::Zdt;
  util::Rng rng(42);
  for (std::size_t m = 2; m <= 6; ++m) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto points = random_set(rng, 1 + rng.below(60), m);
      baselines::DesignArchive<Zdt> unbounded(0);
      baselines::DesignArchive<Zdt> bounded(8);
      for (const auto& p : points) {
        unbounded.insert({p[0]}, p);
        bounded.insert({p[0]}, p);
        expect_mutually_non_dominated(bounded.objective_set());
      }
      EXPECT_EQ(sorted(unbounded.objective_set()), brute_front(points))
          << "m=" << m;
      EXPECT_LE(bounded.size(), 8u);
    }
  }
}

}  // namespace
}  // namespace moela::moo
