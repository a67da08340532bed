// Shared pieces of the benchmark: arguments, the outcome of one invocation
// (metrics plus the attempted/failed tally of output checks), report
// comparison helpers, and the in-process daemon the serve paths drive.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "api/request.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace api = moela::api;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (cache dirs, span files).
  std::string work_dir;
};

/// Everything one invocation reports. Each output check belongs to an
/// attempted operation (a run, or a served run); an operation with any
/// failed check counts once in `failed`.
struct Outcome {
  MetricSet metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Closes one operation: counts it, and counts it failed (printing why
  /// on stderr) when `problems` is non-empty.
  void record(const std::string& what,
              const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const auto& p : problems) {
      std::cerr << "perfbench: check failed: " << what << ": " << p << "\n";
    }
  }
};

/// Independent 64-bit stream `stream` of the workload seed (SplitMix64), so
/// every instance and run seed is a pure function of --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Bit-for-bit equality of two objective-vector lists.
inline bool same_bits(const std::vector<moo::ObjectiveVector>& a,
                      const std::vector<moo::ObjectiveVector>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      if (std::bit_cast<std::uint64_t>(a[i][j]) !=
          std::bit_cast<std::uint64_t>(b[i][j])) {
        return false;
      }
    }
  }
  return true;
}

/// The seeded content of a report: evaluation count, final population,
/// front and every snapshot's front. Wall-clock fields are excluded.
inline bool same_content(const api::RunReport& a, const api::RunReport& b) {
  if (a.evaluations != b.evaluations ||
      a.snapshots.size() != b.snapshots.size() ||
      !same_bits(a.final_front, b.final_front) ||
      !same_bits(a.final_objectives, b.final_objectives)) {
    return false;
  }
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    if (a.snapshots[i].evaluations != b.snapshots[i].evaluations ||
        !same_bits(a.snapshots[i].front, b.snapshots[i].front)) {
      return false;
    }
  }
  return true;
}

/// True when no member of `front` dominates or equals another.
bool mutually_nondominated(const std::vector<moo::ObjectiveVector>& front);

/// The checks every fixed-budget report must pass: the budget was spent
/// exactly and the final front is a Pareto front.
void check_report(const api::RunReport& report, std::size_t budget,
                  std::vector<std::string>& problems);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Workers for an in-process daemon: nproc - 1 (at least one), leaving a
/// core for the client and the daemon's own threads.
std::size_t daemon_jobs();

/// Telemetry read back from a daemon through its `metrics` verb, summed
/// over every daemon a workload started.
struct DaemonStats {
  double request_run_sum_s = 0.0;
  double request_run_count = 0.0;
  double queue_wait_sum_s = 0.0;
  double queue_wait_count = 0.0;
  double run_sum_s = 0.0;
  double run_count = 0.0;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  double cache_stores = 0.0;

  void add(const DaemonStats& other);
};

/// One batch as the client saw it.
struct ServedBatch {
  std::vector<api::RunReport> reports;
  /// Submit to that run's `finished` event, index-aligned with reports.
  std::vector<double> latency_s;
  /// Submit to the batch's final response.
  double wall_s = 0.0;
};

/// An in-process serve::Server on an ephemeral port with its cache under
/// `cache_dir`, and one serve::Client connected to it. The destructor
/// drains the daemon and joins its threads.
class Daemon {
 public:
  Daemon(const std::string& cache_dir, std::size_t jobs);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sends one batch and blocks until its final response (closed loop).
  ServedBatch run(const std::vector<api::RunRequest>& batch);

  /// Reads the daemon's telemetry over the wire (the `metrics` verb).
  DaemonStats stats();

 private:
  moela::serve::Server server_;
  moela::serve::Client client_;
};

/// Adds the serving-path layer metrics shared by every workload's traced
/// run: client batch time, daemon telemetry, and serving overhead.
void add_serve_layer_metrics(MetricSet& out,
                             const std::vector<double>& executed_batch_s,
                             const std::vector<double>& overhead_s,
                             const DaemonStats& stats);

/// What one traced run's spans reduce to: problem calls, and the split of
/// the run span into problem time and the algorithm's own time.
struct SpanFigures {
  double evaluate_calls = 0.0;
  double evaluate_self_s = 0.0;
  double features_calls = 0.0;
  double neighbor_calls = 0.0;
  double variation_calls = 0.0;
  double problem_self_s = 0.0;
  double algo_self_s = 0.0;
  double run_s = 0.0;
};

SpanFigures span_figures(const std::map<std::string, SpanTotals>& totals);

/// Reduces the figures of several traced runs field by field (median over
/// repeats of one run, or the sum over distinct runs), then adds them.
void add_span_metrics(MetricSet& out, const std::vector<SpanFigures>& runs,
                      double (*reduce)(std::vector<double>));

/// The sum of `v` (a reducer for add_span_metrics).
double sum(std::vector<double> v);

Outcome run_noc_workload(const Args& args);
Outcome run_serve_workload(const Args& args);
bool is_noc_workload(const std::string& name);

/// Runs the benchmark's self-tests; returns the number of failures.
int run_self_tests();

}  // namespace perfbench
