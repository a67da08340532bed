// Tests for the paper-scenario runner configuration and a reduced-scale
// smoke of the full scenario pipeline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "api/registry.hpp"
#include "core/moela.hpp"
#include "exp/scenario.hpp"
#include "moo/metrics.hpp"

namespace moela::exp {
namespace {

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
  }
  ~EnvGuard() {
    if (saved_.empty()) {
      unsetenv(name_);
    } else {
      setenv(name_, saved_.c_str(), 1);
    }
  }
  const char* name_;
  std::string saved_;
};

TEST(PaperBenchConfig, DefaultsWithoutEnv) {
  EnvGuard g1("MOELA_BENCH_EVALS");
  EnvGuard g2("MOELA_BENCH_SMALL");
  EnvGuard g3("MOELA_BENCH_SECONDS");
  unsetenv("MOELA_BENCH_EVALS");
  unsetenv("MOELA_BENCH_SMALL");
  unsetenv("MOELA_BENCH_SECONDS");
  const auto config = paper_bench_config_from_env();
  EXPECT_EQ(config.max_evaluations, 40000u);
  EXPECT_FALSE(config.small_platform);
  EXPECT_DOUBLE_EQ(config.max_seconds, 6.0);
  ASSERT_EQ(config.algorithms.size(), 3u);
  EXPECT_EQ(config.algorithms[0], "moela");
}

TEST(PaperBenchConfig, EnvOverrides) {
  EnvGuard g1("MOELA_BENCH_EVALS");
  EnvGuard g2("MOELA_BENCH_SMALL");
  EnvGuard g3("MOELA_BENCH_SECONDS");
  setenv("MOELA_BENCH_EVALS", "1234", 1);
  setenv("MOELA_BENCH_SMALL", "1", 1);
  setenv("MOELA_BENCH_SECONDS", "2.5", 1);
  const auto config = paper_bench_config_from_env();
  EXPECT_EQ(config.max_evaluations, 1234u);
  EXPECT_TRUE(config.small_platform);
  EXPECT_DOUBLE_EQ(config.max_seconds, 2.5);
}

TEST(PaperBenchConfig, PlatformSelection) {
  PaperBenchConfig config;
  config.small_platform = false;
  EXPECT_EQ(bench_platform(config).num_tiles(), 64u);
  config.small_platform = true;
  EXPECT_EQ(bench_platform(config).num_tiles(), 27u);
}

TEST(TunedRunOptions, UsesPaperParameters) {
  PaperBenchConfig config;
  config.max_evaluations = 1234;
  config.max_seconds = 2.5;
  config.snapshot_interval = 150;
  config.seed = 9;
  const api::RunOptions options = tuned_run_options(config);
  EXPECT_EQ(options.max_evaluations, 1234u);
  EXPECT_DOUBLE_EQ(options.max_seconds, 2.5);
  EXPECT_EQ(options.snapshot_interval, 150u);
  EXPECT_EQ(options.seed, 9u);
  EXPECT_EQ(options.population_size, 50u);  // N = 50 (Sec. V.B)
  EXPECT_EQ(options.n_local, 5u);
  // Exactly the values the benches tune away from the library defaults.
  const std::map<std::string, double> want{
      {"moela.train_capacity", 2000},  {"moela.train_interval", 3},
      {"moela.guide_mode", 1},         {"moela.forest.trees", 6},
      {"moela.forest.max_depth", 8},   {"moela.forest.max_features", 16},
      {"moela.forest.subsample", 0.7}, {"moela.ls.max_steps", 20},
      {"moela.ls.max_evals", 60},      {"moos.ls.max_steps", 20},
      {"moos.ls.max_evals", 60},       {"stage.train_capacity", 2000},
      {"stage.forest.trees", 6},       {"stage.forest.max_depth", 8},
      {"stage.forest.max_features", 16},
      {"stage.forest.subsample", 0.7}, {"stage.ls.max_steps", 20},
      {"stage.ls.neighbors_per_step", 4}};
  EXPECT_EQ(options.knobs.values(), want);
  // delta = 0.9 and iter_early = 2 come from the adapters' defaults.
  const core::MoelaConfig defaults;
  EXPECT_DOUBLE_EQ(options.knobs.get_or("moela.delta", defaults.delta), 0.9);
  EXPECT_EQ(options.knobs.get_or("moela.iter_early", defaults.iter_early),
            2u);
}

TEST(TunedRunOptions, EveryKnobIsRead) {
  // A misspelt knob is silently ignored at run time; every key must be one
  // some paper-bench optimizer declares.
  const api::RunOptions options = tuned_run_options(PaperBenchConfig{});
  EXPECT_TRUE(api::registry()
                  .unknown_knob_keys(options.knobs,
                                     {"moela", "moead", "moos", "moo-stage",
                                      "nsga2"})
                  .empty());
}

TEST(Scenario, SmokeRunProducesComparableTraces) {
  PaperBenchConfig config;
  config.small_platform = true;
  config.max_evaluations = 900;
  config.max_seconds = 0.0;  // deterministic: evaluation budget only
  config.snapshot_interval = 150;
  const auto r = run_app_scenario(sim::RodiniaApp::kBfs, 3, config);
  ASSERT_EQ(r.runs.size(), 3u);
  ASSERT_EQ(r.algorithm_names.size(), 3u);
  EXPECT_EQ(r.algorithm_names[0], "MOELA");
  ASSERT_EQ(r.traces.size(), 3u);
  ASSERT_EQ(r.final_phv.size(), 3u);
  EXPECT_EQ(r.num_objectives, 3u);
  for (const auto& trace : r.traces) {
    EXPECT_FALSE(trace.empty());
    for (const auto& p : trace) {
      EXPECT_GE(p.phv, 0.0);
    }
  }
  for (double phv : r.final_phv) EXPECT_GE(phv, 0.0);
  EXPECT_GT(r.common_stop_seconds, 0.0);
}

TEST(Scenario, DeterministicWithoutWallBudget) {
  PaperBenchConfig config;
  config.small_platform = true;
  config.max_evaluations = 600;
  config.max_seconds = 0.0;
  config.snapshot_interval = 200;
  config.algorithms = {"moead"};
  const auto a = run_app_scenario(sim::RodiniaApp::kSrad, 3, config);
  const auto b = run_app_scenario(sim::RodiniaApp::kSrad, 3, config);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces[0].size(); ++i) {
    EXPECT_DOUBLE_EQ(a.traces[0][i].phv, b.traces[0][i].phv);
  }
}

}  // namespace
}  // namespace moela::exp
