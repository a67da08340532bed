// Edge-regime platform variants: single-layer (pure 2D NoC), tall narrow
// stacks, minimum link budgets (spanning-tree-tight), and unsaturated TSV
// budgets. The generator, routing, objectives, and the full MOELA pipeline
// must work across all of them — these regimes exercise branches the
// paper's 4x4x4 never hits (no vertical links at all, budget == n-1, etc.).
#include <gtest/gtest.h>

#include "core/eval_context.hpp"
#include "core/moela.hpp"
#include "noc/constraints.hpp"
#include "noc/problem.hpp"
#include "sim/rodinia.hpp"
#include "util/rng.hpp"

namespace moela::noc {
namespace {

PlatformSpec single_layer_4x4() {
  // 16 tiles, one layer: a classic 2D NoC. No TSVs exist.
  std::vector<PeType> cores;
  cores.insert(cores.end(), 2, PeType::kCpu);
  cores.insert(cores.end(), 10, PeType::kGpu);
  cores.insert(cores.end(), 4, PeType::kLlc);
  return PlatformSpec(4, 4, 1, std::move(cores), 24, 0);
}

PlatformSpec tall_stack_2x2x4() {
  // 16 tiles in a tall stack; every tile is an edge tile.
  std::vector<PeType> cores;
  cores.insert(cores.end(), 2, PeType::kCpu);
  cores.insert(cores.end(), 10, PeType::kGpu);
  cores.insert(cores.end(), 4, PeType::kLlc);
  return PlatformSpec(2, 2, 4, std::move(cores), 12, 8);
}

PlatformSpec tight_budget_3x3x2() {
  // 18 tiles with the minimum budget that can still connect them:
  // 17 links total (12 planar + 5 vertical).
  std::vector<PeType> cores;
  cores.insert(cores.end(), 2, PeType::kCpu);
  cores.insert(cores.end(), 10, PeType::kGpu);
  cores.insert(cores.end(), 6, PeType::kLlc);
  return PlatformSpec(3, 3, 2, std::move(cores), 12, 5);
}

class VariantSweep : public ::testing::TestWithParam<int> {
 protected:
  PlatformSpec make() const {
    switch (GetParam()) {
      case 0:
        return single_layer_4x4();
      case 1:
        return tall_stack_2x2x4();
      default:
        return tight_budget_3x3x2();
    }
  }
};

TEST_P(VariantSweep, RandomDesignsFeasible) {
  const auto spec = make();
  DesignOps ops(spec);
  util::Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    const auto d = ops.random_design(rng);
    const auto report = validate(spec, d);
    ASSERT_TRUE(report.ok())
        << (report.violations.empty() ? "?" : report.violations.front());
  }
}

TEST_P(VariantSweep, OperatorsPreserveFeasibility) {
  const auto spec = make();
  DesignOps ops(spec);
  util::Rng rng(19);
  auto a = ops.random_design(rng);
  const auto b = ops.random_design(rng);
  for (int i = 0; i < 15; ++i) {
    a = ops.random_neighbor(a, rng);
    ASSERT_TRUE(is_feasible(spec, a));
    const auto child = ops.crossover(a, b, rng);
    ASSERT_TRUE(is_feasible(spec, child));
  }
}

TEST_P(VariantSweep, ObjectivesEvaluateCleanly) {
  const auto spec = make();
  const auto workload = sim::make_workload(spec, sim::RodiniaApp::kSrad, 3);
  DesignOps ops(spec);
  util::Rng rng(23);
  const auto d = ops.random_design(rng);
  const auto obj = evaluate_objectives(spec, d, workload, {});
  EXPECT_GT(obj.traffic_mean, 0.0);
  EXPECT_GE(obj.traffic_variance, 0.0);
  EXPECT_GT(obj.cpu_latency, 0.0);
  EXPECT_GT(obj.energy, 0.0);
  EXPECT_GE(obj.thermal, 0.0);
}

TEST_P(VariantSweep, MoelaRunsEndToEnd) {
  const auto spec = make();
  auto workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, 5);
  NocProblem problem(spec, std::move(workload), 3);
  core::MoelaConfig config;
  config.population_size = 10;
  config.n_local = 2;
  config.forest.num_trees = 4;
  config.local_search.max_evaluations = 15;
  core::EvalContext<NocProblem> ctx(problem, 29, 400);
  core::Moela<NocProblem> algo(config);
  const auto pop = algo.run(ctx);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_TRUE(is_feasible(spec, pop.design(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Platforms, VariantSweep, ::testing::Values(0, 1, 2));

TEST(SingleLayer, ThermalReducesToBaseResistanceOnly) {
  // With one layer, T_n,1 = P_n,1 * (R_1 + R_b): verify against a direct
  // computation.
  const auto spec = single_layer_4x4();
  DesignOps ops(spec);
  util::Rng rng(31);
  const auto d = ops.random_design(rng);
  Workload w;
  w.name = "t";
  w.traffic = TrafficMatrix(spec.num_cores());
  w.core_power.assign(spec.num_cores(), 0.0);
  w.core_power[d.placement[5]] = 2.0;  // one hot tile
  NocObjectiveParams params;
  params.r_vertical = {0.5};
  params.r_base = 1.5;
  const auto obj = evaluate_objectives(spec, d, w, params);
  // Peak T = 2.0 * (0.5 + 1.5) = 4; dT = 4 - 0; thermal = 16.
  EXPECT_NEAR(obj.thermal, 16.0, 1e-9);
}

TEST(TallStack, VerticalBudgetBelowCandidatesIsMovable) {
  const auto spec = tall_stack_2x2x4();  // 8 of 12 TSV slots used
  EXPECT_LT(spec.num_vertical_links(), spec.vertical_candidates().size());
  DesignOps ops(spec);
  util::Rng rng(37);
  NocDesign d = ops.random_design(rng);
  int moved = 0;
  for (int i = 0; i < 30; ++i) {
    if (ops.move_link(d, /*planar=*/false, rng)) {
      ++moved;
      ASSERT_TRUE(is_feasible(spec, d));
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(TightBudget, SpanningTreeTightBudgetStillConnects) {
  const auto spec = tight_budget_3x3x2();
  // 18 tiles, 17 links: the link set must be exactly a spanning tree.
  DesignOps ops(spec);
  util::Rng rng(41);
  for (int i = 0; i < 5; ++i) {
    const auto d = ops.random_design(rng);
    EXPECT_EQ(d.links.size(), 17u);
    EXPECT_TRUE(Adjacency(spec, d.links).connected());
  }
}

}  // namespace
}  // namespace moela::noc
