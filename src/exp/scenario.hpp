// Paper-scenario runner shared by the bench binaries: executes a set of
// algorithms over (application, objective-count) cells of the Sec. V setup
// and derives the shared-normalization PHV traces. Algorithms are selected
// by registry key; every run is scheduled as an api::RunRequest through the
// thread-pooled api::Executor (src/api/executor.hpp), so a bench can batch
// its whole grid, run cells in parallel, and serve repeats from the result
// cache without recompiling.
//
// Wall-clock knobs come from the environment so CI and laptops can scale
// the experiments without recompiling:
//   MOELA_BENCH_SECONDS — wall-clock budget per run, seconds (default 6)
//   MOELA_BENCH_EVALS   — evaluation-cap backstop    (default 40000)
//   MOELA_BENCH_SMALL   — "1" = 3x3x3 platform instead of the paper's 4x4x4
//   MOELA_BENCH_SEED    — root seed                  (default 1)
//   MOELA_BENCH_JOBS    — Executor worker threads    (default 1; parallel
//                         runs share cores, so keep 1 when the wall-clock
//                         budget is the contract)
//   MOELA_BENCH_CACHE   — result-cache directory; "1" = the default dir
//                         (api::ResultCache::default_disk_dir), unset or
//                         "0" = off
//   MOELA_BENCH_SHARDS  — comma-separated moela_serve endpoints
//                         ("host:port,host:port"); when set, the whole grid
//                         is fanned across the daemon fleet through
//                         api::ShardedExecutor instead of running
//                         in-process (JOBS/CACHE are then daemon-side
//                         settings). Reports stay bit-identical for fixed
//                         seeds with MOELA_BENCH_SECONDS=0.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "exp/analysis.hpp"
#include "noc/problem.hpp"
#include "sim/rodinia.hpp"

namespace moela::exp {

struct PaperBenchConfig {
  /// Evaluation cap (a backstop; the wall-clock budget normally binds).
  std::size_t max_evaluations = 40000;
  /// Wall-clock budget per run, seconds — the T_stop of Sec. V.B scaled to
  /// bench scale. Identical for every algorithm.
  double max_seconds = 6.0;
  std::size_t snapshot_interval = 250;
  std::uint64_t seed = 1;
  bool small_platform = false;
  /// Registry keys of the algorithms to compare (api::registry()).
  std::vector<std::string> algorithms = {"moela", "moead", "moos"};
  /// Executor worker threads for the batch (1 = serial; runs are
  /// bit-identical either way for a fixed seed with no wall-clock budget).
  std::size_t jobs = 1;
  /// Result-cache directory; empty = no cache.
  std::string cache_dir;
  /// moela_serve endpoints ("host:port"); non-empty fans the grid across
  /// the fleet via api::ShardedExecutor ($MOELA_BENCH_SHARDS).
  std::vector<std::string> shard_endpoints;
};

/// Reads the MOELA_BENCH_* environment overrides.
PaperBenchConfig paper_bench_config_from_env();

/// The run options every paper bench uses: the budgets of `config`, the
/// paper's N = 50 and n_local = 5, and knobs for only the values the
/// benches tune away from the library defaults (forest sizing for the NoC
/// feature width, retrain cadence, local-search budgets). The paper's
/// delta = 0.9 and iter_early = 2 are the library defaults, so the
/// adapters' fallbacks supply them.
api::RunOptions tuned_run_options(const PaperBenchConfig& config);

/// The platform the benches run on (paper 4x4x4 or the reduced 3x3x3).
noc::PlatformSpec bench_platform(const PaperBenchConfig& config);

/// One (app, m) cell of the evaluation: per-algorithm reports plus the
/// shared-normalization anytime-PHV traces (index-aligned with
/// config.algorithms).
struct AppScenarioResult {
  sim::RodiniaApp app;
  std::size_t num_objectives = 0;
  /// Display names index-aligned with `runs` (RunReport::algorithm).
  std::vector<std::string> algorithm_names;
  std::vector<api::RunReport> runs;
  ObjectiveBounds bounds;
  std::vector<moo::ConvergenceTrace> traces;
  /// PHV per algorithm at the common wall-clock stop time (T_stop = the
  /// earliest finish among the runs; every algorithm had at least that much
  /// wall time, the axis the paper compares on).
  std::vector<double> final_phv;
  double common_stop_seconds = 0.0;
};

/// One (application, objective-count) cell of the Sec. V grid.
struct ScenarioCell {
  sim::RodiniaApp app;
  std::size_t num_objectives = 0;
};

/// Runs every configured algorithm on every cell as ONE Executor batch
/// (config.jobs workers, optional result cache), then derives each cell's
/// shared-normalization traces. Results are index-aligned with `cells`.
/// Deterministic per seed for any jobs value.
std::vector<AppScenarioResult> run_app_scenarios(
    const std::vector<ScenarioCell>& cells, const PaperBenchConfig& config);

/// Single-cell convenience over run_app_scenarios().
AppScenarioResult run_app_scenario(sim::RodiniaApp app,
                                   std::size_t num_objectives,
                                   const PaperBenchConfig& config);

}  // namespace moela::exp
