#include "exp/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/executor.hpp"
#include "api/request.hpp"
#include "api/result_cache.hpp"
#include "api/sharded_executor.hpp"
#include "moo/metrics.hpp"
#include "util/log.hpp"
#include "util/numeric.hpp"

namespace moela::exp {

namespace {

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::uint64_t parsed = 0;
  if (!util::parse_u64(v, parsed)) return fallback;
  return static_cast<std::size_t>(parsed);
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::string(v) == "1";
}

// Ctrl-C during a bench grid: the same contract as moela_cli — request a
// graceful stop on the batch's RunControl; a second Ctrl-C falls through
// to the default disposition. Under MOELA_BENCH_SHARDS the stop crosses
// the wire as the protocol's cancel verb, so daemon-side in-flight work
// halts too instead of burning fleet CPU after the bench died. Handlers
// may only touch lock-free atomics, hence the atomic pointer.
std::atomic<api::RunControl*> g_scenario_control{nullptr};

void scenario_handle_sigint(int) {
  if (auto* control = g_scenario_control.load()) control->request_stop();
  std::signal(SIGINT, SIG_DFL);
}

/// Installs the handler for the duration of one grid and restores the
/// previous disposition after, so library callers keep their own signal
/// setup.
struct ScenarioSignalGuard {
  explicit ScenarioSignalGuard(api::RunControl& control) {
    g_scenario_control.store(&control);
    previous = std::signal(SIGINT, scenario_handle_sigint);
  }
  ~ScenarioSignalGuard() {
    std::signal(SIGINT, previous == SIG_ERR ? SIG_DFL : previous);
    g_scenario_control.store(nullptr);
  }
  void (*previous)(int) = nullptr;
};

}  // namespace

PaperBenchConfig paper_bench_config_from_env() {
  PaperBenchConfig config;
  config.max_evaluations = env_size_t("MOELA_BENCH_EVALS", 40000);
  config.seed = env_size_t("MOELA_BENCH_SEED", 1);
  config.small_platform = env_flag("MOELA_BENCH_SMALL");
  const char* secs = std::getenv("MOELA_BENCH_SECONDS");
  if (secs != nullptr && *secs != '\0') {
    double parsed = 0.0;
    if (util::parse_double(secs, parsed)) config.max_seconds = parsed;
  }
  config.snapshot_interval = 200;
  config.jobs = env_size_t("MOELA_BENCH_JOBS", 1);
  const char* cache = std::getenv("MOELA_BENCH_CACHE");
  if (cache != nullptr && *cache != '\0' && std::string(cache) != "0") {
    config.cache_dir = std::string(cache) == "1"
                           ? api::ResultCache::default_disk_dir()
                           : cache;
  }
  if (const char* shards = std::getenv("MOELA_BENCH_SHARDS");
      shards != nullptr && *shards != '\0') {
    std::string spec(shards);
    std::size_t begin = 0;
    while (begin <= spec.size()) {
      const std::size_t comma = spec.find(',', begin);
      std::string endpoint = spec.substr(
          begin, comma == std::string::npos ? std::string::npos
                                            : comma - begin);
      // Trim whitespace: "host1:7313, host2:7313" must not turn the
      // second entry into an unresolvable " host2".
      const std::size_t first = endpoint.find_first_not_of(" \t");
      const std::size_t last = endpoint.find_last_not_of(" \t");
      endpoint = first == std::string::npos
                     ? std::string()
                     : endpoint.substr(first, last - first + 1);
      if (!endpoint.empty()) {
        config.shard_endpoints.push_back(std::move(endpoint));
      }
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
  }
  return config;
}

api::RunOptions tuned_run_options(const PaperBenchConfig& config) {
  api::RunOptions options;
  options.max_evaluations = config.max_evaluations;
  options.max_seconds = config.max_seconds;
  options.snapshot_interval = config.snapshot_interval;
  options.seed = config.seed;
  // The paper's algorithm parameters (Sec. V.B): N = 50, n_local = 5,
  // delta = 0.9, iter_early = 2, |S_train| <= 10K.
  options.population_size = 50;
  options.n_local = 5;
  // Forest sizing tuned for the NoC feature width (~250 features) and a
  // retrain cadence of every 3 iterations so the training wall-time stays a
  // small fraction of evaluation cost: the guide only pays off when it
  // saves more wall time than retraining on every iteration would cost.
  auto forest = [&](const std::string& prefix) {
    options.knobs.set(prefix + ".trees", 6)
        .set(prefix + ".max_depth", 8)
        .set(prefix + ".max_features", 16)
        .set(prefix + ".subsample", 0.7);
  };
  options.knobs.set("moela.train_capacity", 2000)
      .set("moela.train_interval", 3)
      .set("moela.guide_mode", 1.0)  // GuideMode::kImprovement
      .set("stage.train_capacity", 2000);
  forest("moela.forest");
  forest("stage.forest");
  // Local-search budget per iteration: short descents keep the EA stage a
  // substantial share of the evaluation budget (the paper's 48-hour budget
  // runs every algorithm to convergence; at bench scale the split matters).
  options.knobs.set("moela.ls.max_steps", 20)
      .set("moela.ls.max_evals", 60)
      .set("moos.ls.max_steps", 20)
      .set("moos.ls.max_evals", 60)
      .set("stage.ls.max_steps", 20)
      .set("stage.ls.neighbors_per_step", 4);
  return options;
}

noc::PlatformSpec bench_platform(const PaperBenchConfig& config) {
  return config.small_platform ? noc::PlatformSpec::small_3x3x3()
                               : noc::PlatformSpec::paper_4x4x4();
}

std::vector<AppScenarioResult> run_app_scenarios(
    const std::vector<ScenarioCell>& cells, const PaperBenchConfig& config) {
  const api::RunOptions options = tuned_run_options(config);
  const std::size_t per_cell = config.algorithms.size();

  // The whole grid as one batch: cells x algorithms, index-aligned so cell
  // ci's runs are requests [ci * per_cell, (ci + 1) * per_cell).
  std::vector<api::RunRequest> requests;
  requests.reserve(cells.size() * per_cell);
  for (const ScenarioCell& cell : cells) {
    for (const std::string& algorithm : config.algorithms) {
      api::RunRequest request;
      request.problem = "noc";
      request.problem_options.app = sim::app_name(cell.app);
      request.problem_options.num_objectives = cell.num_objectives;
      request.problem_options.seed = config.seed;
      request.problem_options.small_platform = config.small_platform;
      request.algorithm = algorithm;
      request.options = options;
      // Benches unwrap designs_as<NocDesign>() (e.g. the Fig. 3 EDP
      // selection), so cache hits must carry designs.
      request.need_designs = true;
      request.label = std::string(sim::app_name(cell.app)) + " " +
                      std::to_string(cell.num_objectives) + "-obj " +
                      algorithm;
      requests.push_back(std::move(request));
    }
  }

  api::RunControl control;
  const ScenarioSignalGuard signal_guard(control);
  control.on_progress([&requests](const api::RunProgress& progress) {
    if (!progress.finished) return;  // in-run cadence events stay quiet
    util::log_info() << requests[progress.batch_index].label << ": done ("
                     << progress.evaluations << " evals, "
                     << progress.seconds << " s"
                     << (progress.cache_hit ? ", cached" : "") << ") ["
                     << progress.completed << "/" << progress.batch_size
                     << "]";
  });

  std::vector<api::RunReport> reports;
  if (!config.shard_endpoints.empty()) {
    // $MOELA_BENCH_SHARDS: fan the grid across a moela_serve fleet.
    // JOBS/CACHE are daemon-side settings over there; reports come back
    // bit-identical to the in-process path for fixed seeds.
    api::ShardedExecutorConfig sharded_config;
    for (const std::string& spec : config.shard_endpoints) {
      api::ShardEndpoint endpoint;
      if (!api::parse_shard_endpoint(spec, endpoint)) {
        throw std::runtime_error("MOELA_BENCH_SHARDS: bad endpoint '" +
                                 spec + "'");
      }
      sharded_config.endpoints.push_back(std::move(endpoint));
    }
    // A bench sweep is throughput work: run it under the batch class so a
    // shared fleet keeps answering interactive submissions promptly.
    // Scheduling only — the merged reports stay bit-identical.
    sharded_config.priority = serve::sched::Priority::kBatch;
    util::log_info() << "sharding " << requests.size() << " runs ("
                     << cells.size() << " cells x " << per_cell
                     << " algorithms) across "
                     << sharded_config.endpoints.size()
                     << " daemon(s), evals<=" << options.max_evaluations;
    api::ShardedExecutor sharded(std::move(sharded_config));
    reports = sharded.run_all(requests, &control);
    for (const api::ShardStats& shard : sharded.shard_stats()) {
      if (!shard.healthy || shard.failures > 0) {
        util::log_warn() << "shard " << shard.endpoint << ": "
                         << shard.completed << " run(s), "
                         << shard.failures << " failure(s)"
                         << (shard.error.empty() ? "" : " — ")
                         << shard.error;
      }
    }
  } else {
    api::ResultCache cache(config.cache_dir);
    api::ExecutorConfig executor_config;
    executor_config.jobs = config.jobs;
    executor_config.cache = config.cache_dir.empty() ? nullptr : &cache;
    api::Executor executor(executor_config);

    util::log_info() << "scheduling " << requests.size() << " runs ("
                     << cells.size() << " cells x " << per_cell
                     << " algorithms) on " << executor.jobs()
                     << " worker(s), evals<=" << options.max_evaluations;

    reports = executor.run_all(requests, &control);
  }

  std::vector<AppScenarioResult> results;
  results.reserve(cells.size());
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    AppScenarioResult result;
    result.app = cells[ci].app;
    result.num_objectives = cells[ci].num_objectives;
    for (std::size_t ai = 0; ai < per_cell; ++ai) {
      result.runs.push_back(std::move(reports[ci * per_cell + ai]));
      result.algorithm_names.push_back(result.runs.back().algorithm);
    }

    SnapshotSet snapshots;
    for (const auto& run : result.runs) snapshots.push_back(run.snapshots);
    result.bounds = global_bounds(snapshots);
    result.traces = phv_traces(snapshots, result.bounds);
    // T_stop: every algorithm received the same wall-clock budget; compare
    // at the earliest final-trace timestamp so every run has a sample at or
    // before the comparison point. A Ctrl-C'd grid can leave cancelled
    // runs with EMPTY traces — those are skipped here (and score PHV 0)
    // so the bench reports its partial tables instead of crashing.
    result.common_stop_seconds = 0.0;
    bool have_stop = false;
    for (const auto& trace : result.traces) {
      if (trace.empty()) continue;
      result.common_stop_seconds =
          have_stop
              ? std::min(result.common_stop_seconds, trace.back().seconds)
              : trace.back().seconds;
      have_stop = true;
    }
    for (const auto& trace : result.traces) {
      result.final_phv.push_back(
          trace.empty()
              ? 0.0
              : moo::phv_at_time(trace, result.common_stop_seconds));
    }
    results.push_back(std::move(result));
  }
  return results;
}

AppScenarioResult run_app_scenario(sim::RodiniaApp app,
                                   std::size_t num_objectives,
                                   const PaperBenchConfig& config) {
  return std::move(
      run_app_scenarios({ScenarioCell{app, num_objectives}}, config).front());
}

}  // namespace moela::exp
