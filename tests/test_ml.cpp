#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "reference_tree.hpp"
#include "util/rng.hpp"

namespace moela::ml {
namespace {

TEST(Dataset, StoresAndRetrieves) {
  Dataset d(2);
  d.add({1.0, 2.0}, 3.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.feature(0, 0), 1.0);
  EXPECT_EQ(d.row(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(d.target(0), 3.0);
}

TEST(Dataset, WidthMismatchThrows) {
  Dataset d(3);
  EXPECT_THROW(d.add({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(d.add({1.0, 2.0, 3.0, 4.0}, 0.0), std::invalid_argument);
  EXPECT_TRUE(d.empty());
  // A full window rejects a bad row without evicting anything.
  Dataset full(2, 2);
  full.add({1.0, 1.0}, 1.0);
  full.add({2.0, 2.0}, 2.0);
  EXPECT_THROW(full.add({3.0}, 3.0), std::invalid_argument);
  EXPECT_EQ(full.size(), 2u);
  EXPECT_EQ(full.target(0), 1.0);
}

TEST(Dataset, SlidingWindowEvictsOldest) {
  Dataset d(1, 3);
  for (int i = 0; i < 5; ++i) {
    d.add({static_cast<double>(i)}, static_cast<double>(i));
  }
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.target(0), 2.0);  // 0 and 1 evicted
  EXPECT_EQ(d.target(2), 4.0);
}

TEST(Dataset, EvictsExactlyAtCapacity) {
  Dataset d(1, 4);
  for (int i = 0; i < 4; ++i) d.add({0.0}, static_cast<double>(i));
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.target(0), 0.0);  // full, nothing evicted yet
  d.add({0.0}, 4.0);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.target(0), 1.0);
  EXPECT_EQ(d.target(3), 4.0);
}

TEST(Dataset, CapacityZeroGrowsWithoutBound) {
  Dataset d(1);
  for (int i = 0; i < 20000; ++i) d.add({0.0}, static_cast<double>(i));
  EXPECT_EQ(d.size(), 20000u);
  EXPECT_EQ(d.target(0), 0.0);
  EXPECT_EQ(d.target(19999), 19999.0);
}

TEST(Dataset, LogicalOrderIsOldestFirstAcrossWrapAround) {
  Dataset d(2, 3);
  // 3 + 3 + 2 adds: the ring has wrapped twice and its oldest sample sits
  // mid-buffer.
  for (int i = 0; i < 8; ++i) {
    const double v = static_cast<double>(i);
    d.add({v, -v}, 10.0 * v);
  }
  ASSERT_EQ(d.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const double v = static_cast<double>(5 + i);
    EXPECT_EQ(d.target(i), 10.0 * v);
    EXPECT_EQ(d.feature(i, 0), v);
    EXPECT_EQ(d.row(i), (std::vector<double>{v, -v}));
    // The slot-order views agree with the logical accessors.
    EXPECT_EQ(d.column(1)[d.slot(i)], -v);
    EXPECT_EQ(d.targets()[d.slot(i)], 10.0 * v);
  }
}

TEST(Dataset, BootstrapIndicesNameTheSameSamplesAfterWrapAround) {
  // A wrapped window and a fresh dataset holding the same samples in the
  // same oldest-first order must train the same forest from the same seed:
  // logical index i is the i-th oldest sample either way.
  util::Rng data_rng(17);
  Dataset wrapped(3, 50);
  Dataset fresh(3);
  for (int i = 0; i < 137; ++i) {
    const std::vector<double> x{data_rng.uniform(), data_rng.uniform(),
                                std::floor(4.0 * data_rng.uniform())};
    const double y = x[0] * x[1] + x[2];
    wrapped.add(x, y);
    if (i >= 137 - 50) fresh.add(x, y);
  }
  ASSERT_EQ(wrapped.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(wrapped.row(i), fresh.row(i));
    ASSERT_EQ(wrapped.target(i), fresh.target(i));
  }
  util::Rng rng_a(5), rng_b(5);
  ForestConfig config;
  config.num_trees = 8;
  RandomForest a(config), b(config);
  a.fit(wrapped, rng_a);
  b.fit(fresh, rng_b);
  EXPECT_EQ(rng_a(), rng_b());
  util::Rng probe(6);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{probe.uniform(), probe.uniform(),
                                std::floor(4.0 * probe.uniform())};
    EXPECT_EQ(a.predict(x), b.predict(x));
  }
}

Dataset make_linear_dataset(std::size_t n, util::Rng& rng) {
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    d.add({x0, x1}, 2.0 * x0 - 3.0 * x1 + 1.0);
  }
  return d;
}

TEST(DecisionTree, FitsConstantTarget) {
  Dataset d(1);
  for (int i = 0; i < 20; ++i) d.add({static_cast<double>(i)}, 7.0);
  util::Rng rng(1);
  DecisionTree tree;
  tree.fit(d, {}, rng);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{5.0}), 7.0);
  EXPECT_EQ(tree.node_count(), 1u);  // constant target -> single leaf
}

TEST(DecisionTree, FitsStepFunctionExactly) {
  Dataset d(1);
  for (int i = 0; i < 50; ++i) {
    const double x = i / 50.0;
    d.add({x}, x < 0.5 ? 0.0 : 1.0);
  }
  util::Rng rng(2);
  DecisionTree tree;
  tree.fit(d, {}, rng);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.2}), 0.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.8}), 1.0, 1e-9);
}

TEST(DecisionTree, RespectsMaxDepth) {
  util::Rng rng(3);
  Dataset d = make_linear_dataset(200, rng);
  TreeConfig config;
  config.max_depth = 3;
  DecisionTree tree;
  tree.fit(d, config, rng);
  EXPECT_LE(tree.depth(), 4u);  // depth counts nodes; root at depth 1
}

// The split search takes a column with few distinct values through a
// bucketing pass and one with many through a sort; both must give the
// same bits. Column 1 equals column 0 on the fitted rows, but unfitted
// rows give it more distinct values than the root has samples, so at the
// root column 0 is bucketed and column 1 sorted. With equal bits every
// tie goes to column 0, the first examined, and the tree ignores x1.
TEST(DecisionTree, BucketAndSortPathsGiveTheSameBits) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    Dataset d(2);
    std::vector<std::size_t> fitted;
    for (std::size_t i = 0; i < 40; ++i) {
      const double x = std::floor(6.0 * rng.uniform()) / 6.0;
      d.add({x, x}, rng.uniform());
      fitted.push_back(i);
    }
    for (int i = 0; i < 60; ++i) d.add({0.0, 10.0 + i}, 0.0);
    TreeConfig config;
    config.min_samples_leaf = 1;
    DecisionTree tree;
    tree.fit(RankTable(d), fitted, config, rng);
    for (int v = 0; v < 6; ++v) {
      const double x0 = v / 6.0;
      const double want = tree.predict(std::vector<double>{x0, x0});
      for (double x1 : {-1.0, 0.5, 2.0}) {
        EXPECT_EQ(tree.predict(std::vector<double>{x0, x1}), want);
      }
    }
  }
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(DecisionTree, EmptyFitThrows) {
  Dataset d(1);
  util::Rng rng(4);
  DecisionTree tree;
  EXPECT_THROW(tree.fit(d, {}, rng), std::invalid_argument);
}

TEST(DecisionTree, ReducesErrorVsMeanPredictor) {
  util::Rng rng(5);
  Dataset d = make_linear_dataset(300, rng);
  DecisionTree tree;
  tree.fit(d, {}, rng);
  double mean = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) mean += d.target(i);
  mean /= static_cast<double>(d.size());
  double tree_err = 0.0, mean_err = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double p = tree.predict(d.row(i));
    tree_err += (p - d.target(i)) * (p - d.target(i));
    mean_err += (mean - d.target(i)) * (mean - d.target(i));
  }
  EXPECT_LT(tree_err, 0.2 * mean_err);
}

TEST(RandomForest, FitsLinearFunctionWell) {
  util::Rng rng(6);
  Dataset d = make_linear_dataset(500, rng);
  ForestConfig config;
  config.num_trees = 20;
  RandomForest forest(config);
  forest.fit(d, rng);
  EXPECT_GT(RandomForest::r_squared(forest, d), 0.9);
}

TEST(RandomForest, GeneralizesOnHeldOut) {
  util::Rng rng(7);
  Dataset train = make_linear_dataset(800, rng);
  ForestConfig config;
  config.num_trees = 24;
  RandomForest forest(config);
  forest.fit(train, rng);
  // Held-out points from the same function.
  double err = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const double y = 2.0 * x0 - 3.0 * x1 + 1.0;
    const double p = forest.predict(std::vector<double>{x0, x1});
    err += (p - y) * (p - y);
  }
  EXPECT_LT(err / 100.0, 0.05);
}

TEST(RandomForest, DeterministicGivenSeed) {
  util::Rng rng1(8), rng2(8);
  Dataset d = make_linear_dataset(200, rng1);
  util::Rng fit1(99), fit2(99);
  RandomForest f1, f2;
  f1.fit(d, fit1);
  f2.fit(d, fit2);
  util::Rng probe(100);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x{probe.uniform(), probe.uniform()};
    EXPECT_DOUBLE_EQ(f1.predict(x), f2.predict(x));
  }
}

TEST(RandomForest, EmptyDatasetThrows) {
  Dataset d(2);
  util::Rng rng(9);
  RandomForest f;
  EXPECT_THROW(f.fit(d, rng), std::invalid_argument);
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest f;
  EXPECT_THROW(f.predict(std::vector<double>{1.0, 2.0}), std::logic_error);
}

TEST(RandomForest, RSquaredPerfectOnConstant) {
  Dataset d(1);
  for (int i = 0; i < 30; ++i) d.add({static_cast<double>(i)}, 5.0);
  util::Rng rng(10);
  RandomForest f;
  f.fit(d, rng);
  EXPECT_DOUBLE_EQ(RandomForest::r_squared(f, d), 1.0);
}

// Property sweep: the forest must beat the mean predictor on a variety of
// nonlinear targets (the Eval function's job is exactly this kind of
// regression).
class ForestTargetSweep : public ::testing::TestWithParam<int> {};

Dataset sweep_dataset(int kind, util::Rng& rng) {
  Dataset d(3);
  for (int i = 0; i < 400; ++i) {
    const double x0 = rng.uniform(), x1 = rng.uniform(), x2 = rng.uniform();
    double y = 0.0;
    switch (kind) {
      case 0: y = x0 * x1; break;
      case 1: y = std::sin(6.28 * x0) + x2; break;
      case 2: y = (x0 > 0.5 ? 1.0 : 0.0) * (x1 > 0.5 ? 1.0 : 0.0); break;
      case 3: y = std::abs(x0 - x1) + 0.1 * x2; break;
    }
    d.add({x0, x1, x2}, y);
  }
  return d;
}

TEST_P(ForestTargetSweep, BeatsMeanPredictor) {
  const int kind = GetParam();
  util::Rng rng(50 + kind);
  const Dataset d = sweep_dataset(kind, rng);
  ForestConfig config;
  config.num_trees = 16;
  RandomForest forest(config);
  forest.fit(d, rng);
  EXPECT_GT(RandomForest::r_squared(forest, d), 0.5) << "kind=" << kind;
}

double r_squared(const reference::ReferenceForest& model, const Dataset& d) {
  double mean = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) mean += d.target(i);
  mean /= static_cast<double>(d.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double e = d.target(i) - model.predict(d.row(i));
    ss_res += e * e;
    ss_tot += (d.target(i) - mean) * (d.target(i) - mean);
  }
  return 1.0 - ss_res / ss_tot;
}

// Differential test against the pre-rewrite trainer (reference_tree.hpp).
// With several features, exact SSE ties between features are broken by
// summation order, which the rewrite changed, so the trees may differ;
// their fit quality may not.
TEST_P(ForestTargetSweep, MatchesReferenceTrainerRSquared) {
  const int kind = GetParam();
  util::Rng rng(50 + kind);
  const Dataset d = sweep_dataset(kind, rng);
  ForestConfig config;
  config.num_trees = 16;
  util::Rng fit_rng(900 + kind), ref_rng(900 + kind);
  RandomForest forest(config);
  forest.fit(d, fit_rng);
  reference::ReferenceForest oracle(config);
  oracle.fit(d, ref_rng);
  EXPECT_NEAR(RandomForest::r_squared(forest, d), r_squared(oracle, d), 0.02)
      << "kind=" << kind;
}

INSTANTIATE_TEST_SUITE_P(Targets, ForestTargetSweep,
                         ::testing::Values(0, 1, 2, 3));

// Differential test against the pre-rewrite trainer on single-feature data,
// where no two features can tie: both trainers must grow the same trees
// (predictions equal up to the summation order of leaf means) and consume
// the same RNG draws. Alternates continuous columns (the sorting path) with
// few-valued ones (the bucketing path).
TEST(ForestOracle, SingleFeatureMatchesReferenceTrainer) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng gen(seed);
    const std::size_t n = 20 + gen.below(300);
    const double levels = seed % 2 == 0 ? 0.0 : 2.0 + gen.below(40);
    Dataset d(1, seed % 3 == 0 ? n / 2 : 0);  // some windows wrap
    for (std::size_t i = 0; i < n; ++i) {
      double x = gen.uniform();
      if (levels > 0.0) x = std::floor(levels * x) / levels;
      d.add({x}, 1.0 + std::sin(5.0 * x) + 0.3 * gen.uniform());
    }
    ForestConfig config;
    config.num_trees = 8;
    config.subsample = seed % 4 == 0 ? 0.7 : 1.0;
    config.min_samples_leaf = 1 + seed % 3;
    util::Rng fit_rng(seed * 31), ref_rng(seed * 31);
    RandomForest forest(config);
    forest.fit(d, fit_rng);
    reference::ReferenceForest oracle(config);
    oracle.fit(d, ref_rng);
    EXPECT_EQ(fit_rng(), ref_rng()) << "the trainers drew different counts";

    util::Rng probe(seed + 1000);
    for (int i = 0; i < 200; ++i) {
      const std::vector<double> x{i < 100 ? d.feature(i % d.size(), 0)
                                          : 1.2 * probe.uniform() - 0.1};
      const double want = oracle.predict(x);
      EXPECT_NEAR(forest.predict(x), want, 1e-12 * std::abs(want));
    }
  }
}

}  // namespace
}  // namespace moela::ml
