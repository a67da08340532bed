// The serve-sweep workload: a closed-loop client drives an in-process
// serve::Server through a fixed sweep of short runs on the cheap analytic
// problems. Each batch goes out only after the previous batch's final
// response. About half of the requests repeat a request of an earlier batch
// (a cache hit, since a run is stored before its batch answers); the rest
// are fresh (a miss, then a store).
//
// One measurement repeats the whole sweep against a fresh daemon with an
// empty cache until --seconds have passed, so every sweep sees the same
// hits and misses, and daemon start is timed as set-up each time. Rates
// and latency percentiles are taken per sweep and reported as the median
// over sweeps: a host stall then moves the few sweeps it hits, not the
// figure, as it would when one tail is pooled over every sweep.
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/problems.hpp"
#include "api/registry.hpp"
#include "bench.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatches = 10;
constexpr std::size_t kBatchSize = 12;
constexpr std::size_t kEvaluations = 1000;
constexpr std::size_t kSnapshotInterval = 250;
constexpr std::size_t kMinSweeps = 3;

struct Cell {
  const char* problem;
  const char* algorithm;
};

/// Fresh requests cycle through these cells in order; the first is the one
/// the probes run on (it uses every problem operation).
const Cell kCells[] = {
    {"zdt1", "moela-noguide"}, {"dtlz2", "nsga2"},
    {"knapsack", "moead"},     {"zdt1", "nsga2"},
    {"dtlz2", "moead"},        {"knapsack", "moela-noguide"},
    {"zdt1", "moead"},         {"dtlz2", "moela-noguide"},
    {"knapsack", "nsga2"},
};

/// Fixed normalization boxes per problem for the phv figure.
const std::map<std::string, PhvBox> kBoxes = {
    {"zdt1", {{0.0, 0.0}, {1.0, 5.0}}},
    {"dtlz2", {{0.0, 0.0, 0.0}, {2.0, 2.0, 2.0}}},
    {"knapsack", {{-4000.0, -4000.0}, {-1500.0, -1500.0}}},
};

struct Sweep {
  std::vector<std::vector<api::RunRequest>> batches;
  /// Per batch and position: true when the request repeats an earlier one.
  std::vector<std::vector<bool>> repeat;
  /// One copy of every distinct request, in first-seen order.
  std::vector<api::RunRequest> distinct;
};

Sweep make_sweep(std::uint64_t seed) {
  moela::util::Rng rng(derive_seed(seed, 100));
  const std::uint64_t knapsack_seed = derive_seed(seed, 101);
  Sweep s;
  std::size_t fresh = 0;
  std::vector<api::RunRequest> earlier;
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<api::RunRequest> batch;
    std::vector<bool> repeat;
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      if (b > 0 && j % 2 == 1) {
        batch.push_back(earlier[rng.below(earlier.size())]);
        repeat.push_back(true);
        continue;
      }
      const Cell& cell = kCells[fresh++ % std::size(kCells)];
      api::RunRequest r;
      r.problem = cell.problem;
      r.algorithm = cell.algorithm;
      r.problem_options.seed = knapsack_seed;
      r.options.max_evaluations = kEvaluations;
      r.options.snapshot_interval = kSnapshotInterval;
      r.options.seed = rng.below(1u << 30);
      batch.push_back(r);
      repeat.push_back(false);
      s.distinct.push_back(r);
    }
    earlier.insert(earlier.end(), batch.begin(), batch.end());
    s.batches.push_back(std::move(batch));
    s.repeat.push_back(std::move(repeat));
  }
  return s;
}

/// Everything one sweep against a fresh daemon produced.
struct SweepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<ServedBatch> batches;
  DaemonStats stats;
};

SweepResult run_sweep(const Sweep& sweep, const std::string& cache_dir,
                      bool read_stats) {
  SweepResult out;
  std::filesystem::remove_all(cache_dir);
  const auto t0 = Clock::now();
  {
    Daemon daemon(cache_dir, daemon_jobs());
    out.setup_s = seconds_since(t0);
    const auto start = Clock::now();
    for (const auto& batch : sweep.batches) {
      out.batches.push_back(daemon.run(batch));
    }
    out.wall_s = seconds_since(start);
    if (read_stats) out.stats = daemon.stats();
  }
  std::filesystem::remove_all(cache_dir);
  return out;
}

/// Output checks of one sweep: budgets and fronts, hits and misses where
/// the sweep put them, every hit identical to its miss, and every report
/// identical to the same position in the first sweep.
void check_sweep(const Sweep& sweep, const SweepResult& result,
                 const SweepResult* first, Outcome& outcome) {
  std::map<std::string, const api::RunReport*> by_key;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      const api::RunReport& r = result.batches[b].reports[j];
      std::vector<std::string> problems;
      check_report(r, kEvaluations, problems);
      if (r.provenance.cache_hit != sweep.repeat[b][j]) {
        problems.push_back(sweep.repeat[b][j] ? "repeat was not a cache hit"
                                              : "fresh request was a hit");
      }
      const std::string key = sweep.batches[b][j].cache_key();
      if (auto it = by_key.find(key); it != by_key.end()) {
        if (!same_content(r, *it->second)) {
          problems.push_back("cache hit differs from its miss");
        }
      } else {
        by_key[key] = &r;
      }
      if (first != nullptr &&
          !same_content(r, first->batches[b].reports[j])) {
        problems.push_back("repeated sweep differs");
      }
      outcome.record("serve-sweep " + sweep.batches[b][j].label_or_default(),
                     problems);
    }
  }
}

/// Every distinct request run inline through api::Executor (no cache) must
/// match what the daemon served for it.
void check_against_inline(const Sweep& sweep, const SweepResult& served,
                          Outcome& outcome) {
  std::map<std::string, const api::RunReport*> by_key;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      by_key.emplace(sweep.batches[b][j].cache_key(),
                     &served.batches[b].reports[j]);
    }
  }
  api::ExecutorConfig config;
  config.jobs = daemon_jobs();
  api::Executor executor(config);
  const auto inline_reports = executor.run_all(sweep.distinct);
  for (std::size_t i = 0; i < sweep.distinct.size(); ++i) {
    std::vector<std::string> problems;
    if (!same_content(inline_reports[i],
                      *by_key.at(sweep.distinct[i].cache_key()))) {
      problems.push_back("served report differs from an inline Executor run");
    }
    outcome.record("serve-sweep inline", problems);
  }
}

/// Samples of every sweep of a measurement. Only the first sweep's reports
/// are kept (for the checks and phv), so memory does not grow with the
/// number of sweeps that fit in the time.
struct Samples {
  SweepResult first;
  std::vector<double> setup_s, sweep_s, batch_s;
  /// Per sweep: runs answered per second, and the median and p90 of its
  /// runs' latencies.
  std::vector<double> runs_per_s, latency_p50_s, latency_p90_s;
  /// Client latency minus the run's own time, per executed (missed) run.
  std::vector<double> overhead_s;
  DaemonStats stats;
};

/// Repeats the sweep until `seconds` have passed (at least kMinSweeps).
Samples measure_sweeps(const Sweep& sweep, const Args& args, double seconds,
                       bool read_stats, Outcome& outcome) {
  Samples out;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMinSweeps || seconds_since(start) < seconds;
       ++i) {
    SweepResult r = run_sweep(
        sweep, args.work_dir + "/cache-serve-" + std::to_string(i),
        read_stats);
    check_sweep(sweep, r, i == 0 ? nullptr : &out.first, outcome);
    out.setup_s.push_back(r.setup_s);
    out.sweep_s.push_back(r.wall_s);
    out.stats.add(r.stats);
    std::vector<double> latency_s;
    for (const auto& b : r.batches) {
      out.batch_s.push_back(b.wall_s);
      latency_s.insert(latency_s.end(), b.latency_s.begin(),
                       b.latency_s.end());
      for (std::size_t j = 0; j < b.reports.size(); ++j) {
        if (!b.reports[j].provenance.cache_hit) {
          out.overhead_s.push_back(b.latency_s[j] - b.reports[j].seconds);
        }
      }
    }
    out.runs_per_s.push_back(static_cast<double>(latency_s.size()) /
                             r.wall_s);
    out.latency_p50_s.push_back(median(latency_s));
    out.latency_p90_s.push_back(tail_percentile(latency_s, 90.0));
    if (i == 0) out.first = std::move(r);
  }
  check_against_inline(sweep, out.first, outcome);
  return out;
}

/// Evaluations the daemon ran (cache misses) to answer one sweep.
double executed_evaluations(const SweepResult& sweep) {
  double evals = 0.0;
  for (const auto& b : sweep.batches) {
    for (const auto& r : b.reports) {
      if (!r.provenance.cache_hit) evals += static_cast<double>(r.evaluations);
    }
  }
  return evals;
}

void measure(const Args& args, Outcome& outcome) {
  const Sweep sweep = make_sweep(args.seed);
  const Samples samples =
      measure_sweeps(sweep, args, args.seconds, false, outcome);

  // Quality of the sweep's answers: one PHV per distinct request.
  std::map<std::string, const api::RunReport*> by_key;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      by_key.emplace(sweep.batches[b][j].cache_key(),
                     &samples.first.batches[b].reports[j]);
    }
  }
  std::vector<double> phv;
  for (const auto& r : sweep.distinct) {
    phv.push_back(box_phv(by_key.at(r.cache_key())->final_objectives,
                          kBoxes.at(r.problem)));
  }

  auto& m = outcome.metrics;
  m.add("run_s", median(samples.batch_s), "s");
  m.add("phv", mean(phv), "normalized");
  m.add("setup_s", median(samples.setup_s), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("runs_per_s", median(samples.runs_per_s), "1/s");
  m.add("run_latency_p50_ms", median(samples.latency_p50_s) * 1e3, "ms");
  m.add("run_latency_p90_ms", median(samples.latency_p90_s) * 1e3, "ms");
}

void trace(const Args& args, Outcome& outcome) {
  const Sweep sweep = make_sweep(args.seed);
  const Samples samples =
      measure_sweeps(sweep, args, args.seconds / 2, true, outcome);
  auto& m = outcome.metrics;
  // The sweep's time to solution: every request answered.
  m.add("t_target_s", median(samples.sweep_s), "s");
  m.add("t_target_evals", executed_evaluations(samples.first), "evaluations");
  add_serve_layer_metrics(m, samples.batch_s, samples.overhead_s,
                          samples.stats);

  // The first batch again, inline: each request untraced, then through the
  // timing adapter, with its problem calls as child spans of the run span.
  std::vector<SpanFigures> figures;
  double untraced_s = 0.0;
  Harvest<api::AnyDesign> harvest;
  api::RunReport probe_report;
  const auto& batch = sweep.batches[0];
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const api::RunRequest& request = batch[j];
    const api::AnyProblem problem =
        api::make_problem(request.problem, request.problem_options);
    auto t0 = Clock::now();
    const api::RunReport plain =
        api::registry().create(request.algorithm, problem)->run(
            request.options);
    untraced_s += seconds_since(t0);

    Tracer tracer(derive_seed(args.seed, 3000 + j));
    Harvest<api::AnyDesign> h;
    auto optimizer = api::registry().create(
        request.algorithm,
        api::AnyProblem(TimedProblem<api::AnyProblem>(problem, &tracer, &h)));
    api::RunReport traced;
    {
      Scope run(tracer, "run");
      traced = optimizer->run(request.options);
    }
    if (j == 0) {
      tracer.write_csv(args.work_dir + "/spans-serve-sweep.csv");
      harvest = std::move(h);
      probe_report = plain;
    }
    std::vector<std::string> problems;
    if (!same_content(traced, plain) ||
        !same_content(plain, samples.first.batches[0].reports[j])) {
      problems.push_back("traced, untraced and served reports differ");
    }
    outcome.record("serve-sweep traced", problems);
    figures.push_back(span_figures(aggregate(tracer.spans())));
  }
  // The batch's requests are different runs: their figures add up.
  add_span_metrics(m, figures, sum);
  m.add("trace.overhead_s", m.find("trace.run_s")->value - untraced_s, "s");

  const api::AnyProblem problem =
      api::make_problem(batch[0].problem, batch[0].problem_options);
  run_probes(problem, harvest, probe_report.final_designs,
             probe_report.final_objectives, kBoxes.at(batch[0].problem),
             derive_seed(args.seed, 2000), m);
}

}  // namespace

Outcome run_serve_workload(const Args& args) {
  Outcome outcome;
  if (args.trace) {
    trace(args, outcome);
  } else {
    measure(args, outcome);
  }
  return outcome;
}

}  // namespace perfbench
