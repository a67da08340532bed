// Microbenchmarks (google-benchmark) for the cost centers the paper
// discusses: hypervolume computation versus objective count (the overhead
// MOELA's decomposition-based local search avoids, Sec. IV.B), routing and
// objective evaluation (the evaluation cost), random-forest training and
// prediction (the Eval model), and the variation operators — plus an
// end-to-end algorithm x problem suite (BM_EndToEnd/*) whose wall time and
// evals_per_sec counter feed the committed BENCH_*.json baselines that
// scripts/bench_compare.py diffs for regressions:
//
//   bench_micro --benchmark_filter=BM_EndToEnd
//               --benchmark_format=json --benchmark_out=BENCH_new.json
//   scripts/bench_compare.py BENCH_7.json BENCH_new.json
#include <benchmark/benchmark.h>

#include "api/any_problem.hpp"
#include "api/executor.hpp"
#include "api/request.hpp"
#include "baselines/archive_search.hpp"
#include "core/eval_model.hpp"
#include "ml/random_forest.hpp"
#include "moo/hypervolume.hpp"
#include "moo/scalarize.hpp"
#include "moo/weights.hpp"
#include "noc/generator.hpp"
#include "noc/objectives.hpp"
#include "noc/problem.hpp"
#include "noc/routing.hpp"
#include "problems/dtlz.hpp"
#include "sim/rodinia.hpp"
#include "util/rng.hpp"

using namespace moela;

namespace {

std::vector<moo::ObjectiveVector> random_front(std::size_t n, std::size_t m,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<moo::ObjectiveVector> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    moo::ObjectiveVector p(m);
    double s = 0.0;
    for (auto& v : p) {
      v = -std::log(1.0 - rng.uniform());
      s += v;
    }
    for (auto& v : p) v = v / s + 0.02 * rng.uniform();
    points.push_back(std::move(p));
  }
  return points;
}

// Hypervolume cost grows steeply with objective count — the PHV-in-the-
// inner-loop overhead of MOOS/MOO-STAGE.
void BM_HypervolumeByObjectives(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto points = random_front(50, m, 7);
  const moo::ObjectiveVector ref(m, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::hypervolume(points, ref));
  }
}
BENCHMARK(BM_HypervolumeByObjectives)->DenseRange(2, 6);

void BM_HypervolumeByFrontSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = random_front(n, 5, 11);
  const moo::ObjectiveVector ref(5, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::hypervolume(points, ref));
  }
}
BENCHMARK(BM_HypervolumeByFrontSize)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

// The per-candidate PHV call of MOOS / MOO-STAGE: one archive-PHV gain of a
// non-dominated candidate against a 50-point, 5-objective archive.
void BM_PhvGain(benchmark::State& state) {
  baselines::DesignArchive<problems::Dtlz2> archive(50);
  for (auto& p : random_front(50, 5, 13)) archive.insert({}, std::move(p));
  const auto candidate = random_front(1, 5, 17).front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(archive.phv_gain(candidate));
  }
  state.counters["archive"] = static_cast<double>(archive.size());
}
BENCHMARK(BM_PhvGain);

// The Eq. (8) scalarization MOELA uses instead — constant in M for
// practical purposes.
void BM_WeightedDistance(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const moo::ObjectiveVector obj(m, 0.4);
  const moo::ObjectiveVector w(m, 1.0 / static_cast<double>(m));
  const moo::ObjectiveVector z(m, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::weighted_distance(obj, w, z));
  }
}
BENCHMARK(BM_WeightedDistance)->DenseRange(2, 6);

struct NocFixture {
  noc::PlatformSpec spec = noc::PlatformSpec::paper_4x4x4();
  noc::Workload workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, 1);
  noc::DesignOps ops{spec};
  util::Rng rng{42};
  noc::NocDesign design = ops.random_design(rng);
};

void BM_RoutingTableBuild(benchmark::State& state) {
  NocFixture f;
  for (auto _ : state) {
    noc::RoutingTable routes(f.spec, f.design);
    benchmark::DoNotOptimize(routes.hops(0, 63));
  }
}
BENCHMARK(BM_RoutingTableBuild);

void BM_FullObjectiveEvaluation(benchmark::State& state) {
  NocFixture f;
  const noc::NocObjectiveParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        noc::evaluate_objectives(f.spec, f.design, f.workload, params));
  }
}
BENCHMARK(BM_FullObjectiveEvaluation);

void BM_RandomDesign(benchmark::State& state) {
  NocFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ops.random_design(f.rng));
  }
}
BENCHMARK(BM_RandomDesign);

void BM_RandomNeighbor(benchmark::State& state) {
  NocFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ops.random_neighbor(f.design, f.rng));
  }
}
BENCHMARK(BM_RandomNeighbor);

void BM_Crossover(benchmark::State& state) {
  NocFixture f;
  const noc::NocDesign other = f.ops.random_design(f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ops.crossover(f.design, other, f.rng));
  }
}
BENCHMARK(BM_Crossover);

ml::Dataset eval_style_dataset(std::size_t samples, std::size_t features) {
  util::Rng rng(3);
  ml::Dataset d(features);
  for (std::size_t i = 0; i < samples; ++i) {
    std::vector<double> x(features);
    for (auto& v : x) v = rng.uniform();
    d.add(std::move(x), rng.uniform());
  }
  return d;
}

void BM_ForestTrain(benchmark::State& state) {
  const auto d =
      eval_style_dataset(static_cast<std::size_t>(state.range(0)), 260);
  ml::ForestConfig config;
  config.num_trees = 10;
  config.max_depth = 10;
  config.max_features = 24;
  config.subsample = 0.7;
  util::Rng rng(5);
  for (auto _ : state) {
    ml::RandomForest forest(config);
    forest.fit(d, rng);
    benchmark::DoNotOptimize(forest.num_trees());
  }
}
BENCHMARK(BM_ForestTrain)->Arg(500)->Arg(2000)->Arg(4000);

// The Eval model as MOELA trains it on the paper's 4x4x4 NoC: default forest
// (24 trees, a third of the 273 columns per split) over S_train rows of
// [design features | objectives | weight], labelled with the final Eq. (8)
// value of a greedy descent. 192 design columns are one-hot and 71 hold
// small integers, unlike BM_ForestTrain's all-uniform worst case.
// Arg = |S_train|; a 2000-evaluation noc-moela run ends near 850.
void BM_ForestTrainNocEval(benchmark::State& state) {
  NocFixture f;
  const noc::NocProblem problem(f.spec, f.workload, 5);
  const auto weights = moo::uniform_weights(5, 50);
  const moo::ObjectiveVector origin(5, 0.0);
  core::EvalModel model(problem.num_features(), 5);
  const auto rows = static_cast<std::size_t>(state.range(0));
  while (model.num_samples() < rows) {
    // One descent trajectory: up to 6 accepted neighbors from a random
    // start, all labelled with the best value reached.
    const moo::WeightVector& w = f.rng.pick(weights);
    std::vector<noc::NocDesign> path{problem.random_design(f.rng)};
    std::vector<moo::ObjectiveVector> objs{problem.evaluate(path.back())};
    double best = moo::weighted_distance(objs.back(), w, origin);
    for (int step = 0; step < 6; ++step) {
      auto next = problem.random_neighbor(path.back(), f.rng);
      auto obj = problem.evaluate(next);
      const double g = moo::weighted_distance(obj, w, origin);
      if (g >= best) continue;
      best = g;
      path.push_back(std::move(next));
      objs.push_back(std::move(obj));
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
      model.add_sample(problem.features(path[i]), objs[i], w, best);
    }
  }
  util::Rng rng(5);
  for (auto _ : state) {
    model.train(rng);
    benchmark::DoNotOptimize(model.trained());
  }
}
BENCHMARK(BM_ForestTrainNocEval)->Arg(850)->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const auto d = eval_style_dataset(2000, 260);
  ml::ForestConfig config;
  config.num_trees = 10;
  config.max_depth = 10;
  config.max_features = 24;
  util::Rng rng(5);
  ml::RandomForest forest(config);
  forest.fit(d, rng);
  std::vector<double> x(260, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(x));
  }
}
BENCHMARK(BM_ForestPredict);

void BM_FeatureExtraction(benchmark::State& state) {
  noc::PlatformSpec spec = noc::PlatformSpec::paper_4x4x4();
  auto workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, 1);
  noc::NocProblem problem(spec, workload, 5);
  util::Rng rng(7);
  const auto d = problem.random_design(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.features(d));
  }
}
BENCHMARK(BM_FeatureExtraction);

// Cost of the api::AnyProblem type-erasure layer on the hottest call
// (objective evaluation): one virtual dispatch + AnyDesign unwrap per call,
// which must stay negligible against the evaluation itself for the
// runtime-composition front-end to be free in practice.
void BM_EvaluateDirect(benchmark::State& state) {
  NocFixture f;
  noc::NocProblem problem(f.spec, f.workload, 5);
  const auto d = problem.random_design(f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate(d));
  }
}
BENCHMARK(BM_EvaluateDirect);

void BM_EvaluateTypeErased(benchmark::State& state) {
  NocFixture f;
  api::AnyProblem problem(noc::NocProblem(f.spec, f.workload, 5));
  const auto d = problem.random_design(f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate(d));
  }
}
BENCHMARK(BM_EvaluateTypeErased);

// The cheapest concept operation, where the erasure overhead (an AnyDesign
// heap allocation per returned design) is most visible.
void BM_NeighborTypeErased(benchmark::State& state) {
  NocFixture f;
  api::AnyProblem problem(noc::NocProblem(f.spec, f.workload, 5));
  const auto d = problem.random_design(f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.random_neighbor(d, f.rng));
  }
}
BENCHMARK(BM_NeighborTypeErased);

// End-to-end algorithm x problem runs through the api layer: each
// iteration is one full fixed-seed optimization, so real_time is the wall
// time per run and the evals_per_sec counter is the throughput number the
// committed BENCH_*.json baselines track across PRs.
void BM_EndToEnd(benchmark::State& state, const char* problem,
                 const char* algorithm) {
  api::RunRequest request;
  request.problem = problem;
  request.algorithm = algorithm;
  request.options.max_evaluations = 2000;
  request.options.snapshot_interval = 1000;
  request.options.seed = 1;
  request.options.population_size = 24;
  request.options.n_local = 3;
  std::size_t evaluations = 0;
  for (auto _ : state) {
    api::Executor executor({.jobs = 1});
    const api::RunReport report = executor.run_all({request}).front();
    evaluations += report.evaluations;
    benchmark::DoNotOptimize(report.evaluations);
  }
  // SetItemsProcessed (total evals over total elapsed) rather than a raw
  // rate counter: items_per_second is computed identically across
  // google-benchmark versions.
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.counters["evals_per_run"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kAvgIterations);
}

// UseRealTime: the optimization runs on the Executor's pool thread, so the
// timing thread's cpu_time is meaningless — wall time is the measurement.
#define MOELA_END_TO_END(problem, algorithm)                       \
  BENCHMARK_CAPTURE(BM_EndToEnd, problem##_##algorithm, #problem,  \
                    #algorithm)                                    \
      ->UseRealTime()

MOELA_END_TO_END(zdt1, moela);
MOELA_END_TO_END(zdt1, nsga2);
MOELA_END_TO_END(zdt1, moead);
MOELA_END_TO_END(zdt1, moos);
MOELA_END_TO_END(dtlz2, moela);
MOELA_END_TO_END(dtlz2, nsga2);
MOELA_END_TO_END(dtlz2, moead);
MOELA_END_TO_END(dtlz2, moos);
MOELA_END_TO_END(knapsack, moela);
MOELA_END_TO_END(knapsack, nsga2);
MOELA_END_TO_END(knapsack, moead);
MOELA_END_TO_END(knapsack, moos);

#undef MOELA_END_TO_END

}  // namespace

BENCHMARK_MAIN();
