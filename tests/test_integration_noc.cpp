// End-to-end integration: the full MOELA pipeline on the NoC design problem
// (small platform for speed), plus NocProblem's MooProblem conformance.
#include <gtest/gtest.h>

#include "api/any_problem.hpp"
#include "api/registry.hpp"
#include "core/eval_context.hpp"
#include "core/moela.hpp"
#include "exp/analysis.hpp"
#include "noc/constraints.hpp"
#include "noc/problem.hpp"
#include "sim/rodinia.hpp"

namespace moela {
namespace {

noc::NocProblem small_problem(std::size_t m, std::uint64_t seed = 1) {
  auto spec = noc::PlatformSpec::small_3x3x3();
  auto workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, seed);
  return noc::NocProblem(std::move(spec), std::move(workload), m);
}

core::MoelaConfig small_config() {
  core::MoelaConfig c;
  c.population_size = 15;
  c.n_local = 3;
  c.neighborhood_size = 5;
  c.train_capacity = 1000;
  c.forest.num_trees = 6;
  c.forest.max_depth = 8;
  c.forest.max_features = 16;
  c.local_search.max_steps = 10;
  c.local_search.patience = 5;
  c.local_search.max_evaluations = 40;
  return c;
}

TEST(NocProblem, SatisfiesConceptContract) {
  const auto problem = small_problem(5);
  util::Rng rng(2);
  const auto d = problem.random_design(rng);
  EXPECT_EQ(problem.num_objectives(), 5u);
  const auto obj = problem.evaluate(d);
  EXPECT_EQ(obj.size(), 5u);
  for (double v : obj) EXPECT_GE(v, 0.0);
  const auto f = problem.features(d);
  EXPECT_EQ(f.size(), problem.num_features());
}

TEST(NocProblem, ObjectiveCountSelectsScenario) {
  for (std::size_t m : {3ul, 4ul, 5ul}) {
    const auto problem = small_problem(m);
    util::Rng rng(3);
    EXPECT_EQ(problem.evaluate(problem.random_design(rng)).size(), m);
  }
  auto spec = noc::PlatformSpec::small_3x3x3();
  auto w = sim::make_workload(spec, sim::RodiniaApp::kBfs, 1);
  EXPECT_THROW(noc::NocProblem(spec, w, 6), std::invalid_argument);
  EXPECT_THROW(noc::NocProblem(spec, w, 1), std::invalid_argument);
}

TEST(NocProblem, EvaluationIsPure) {
  const auto problem = small_problem(5);
  util::Rng rng(5);
  const auto d = problem.random_design(rng);
  EXPECT_EQ(problem.evaluate(d), problem.evaluate(d));
}

TEST(NocProblem, FeaturesDistinguishDesigns) {
  const auto problem = small_problem(3);
  util::Rng rng(7);
  const auto a = problem.random_design(rng);
  const auto b = problem.random_design(rng);
  EXPECT_NE(problem.features(a), problem.features(b));
}

TEST(Integration, MoelaOnNocKeepsAllDesignsFeasible) {
  const auto problem = small_problem(5);
  core::EvalContext<noc::NocProblem> ctx(problem, 11, 1500);
  core::Moela<noc::NocProblem> algo(small_config());
  const auto pop = algo.run(ctx);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const auto report = noc::validate(problem.spec(), pop.design(i));
    EXPECT_TRUE(report.ok())
        << (report.violations.empty() ? "?" : report.violations.front());
  }
}

TEST(Integration, ArchiveIsNonDominatedAndConsistent) {
  const auto problem = small_problem(3);
  core::EvalContext<noc::NocProblem> ctx(problem, 13, 1200);
  core::Moela<noc::NocProblem> algo(small_config());
  algo.run(ctx);
  const auto points = ctx.archive().objective_set();
  ASSERT_FALSE(points.empty());
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(moo::dominates(points[i], points[j]));
      }
    }
  }
}

TEST(Integration, MoelaImprovesOverInitialPopulation) {
  const auto problem = small_problem(5);
  // Initial-quality proxy: PHV of a pure random population of equal size.
  core::EvalContext<noc::NocProblem> random_ctx(problem, 17, 1500);
  while (!random_ctx.exhausted()) {
    random_ctx.evaluate(problem.random_design(random_ctx.rng()));
  }
  core::EvalContext<noc::NocProblem> ctx(problem, 17, 1500);
  core::Moela<noc::NocProblem> algo(small_config());
  algo.run(ctx);

  exp::SnapshotSet runs;
  random_ctx.take_snapshot();
  ctx.take_snapshot();
  runs.push_back(random_ctx.snapshots());
  runs.push_back(ctx.snapshots());
  const auto bounds = exp::global_bounds(runs);
  const double random_phv = exp::final_phv(
      random_ctx.archive().objective_set(), bounds);
  const double moela_phv =
      exp::final_phv(ctx.archive().objective_set(), bounds);
  EXPECT_GT(moela_phv, random_phv);
}

TEST(Integration, FullRunnerOnNocProblem) {
  const auto problem = small_problem(4);
  api::RunOptions options;
  options.max_evaluations = 1000;
  options.snapshot_interval = 200;
  options.population_size = 12;
  options.n_local = 2;
  options.knobs.set("moela.neighborhood_size", 5)
      .set("moela.train_capacity", 1000)
      .set("moela.forest.trees", 6)
      .set("moela.forest.max_depth", 8)
      .set("moela.forest.max_features", 16)
      .set("moela.ls.max_steps", 10)
      .set("moela.ls.patience", 5)
      .set("moela.ls.max_evals", 40)
      .set("moos.ls.max_steps", 8)
      .set("moos.ls.patience", 4)
      .set("moos.ls.max_evals", 24);
  for (const char* algorithm : {"moela", "moead", "moos"}) {
    const api::RunReport report =
        api::registry()
            .create(algorithm, api::AnyProblem(problem))
            ->run(options);
    EXPECT_FALSE(report.final_designs.empty()) << algorithm;
    for (const auto& d : report.designs_as<noc::NocDesign>()) {
      EXPECT_TRUE(noc::is_feasible(problem.spec(), d));
    }
  }
}

TEST(Integration, DeterministicEndToEnd) {
  const auto problem = small_problem(3);
  auto run_once = [&] {
    core::EvalContext<noc::NocProblem> ctx(problem, 23, 800);
    core::Moela<noc::NocProblem> algo(small_config());
    algo.run(ctx);
    return ctx.archive().objective_set();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace moela
