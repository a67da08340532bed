#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "moo/objective.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace serve = moela::serve;
using moela::util::Json;

bool mutually_nondominated(const std::vector<moo::ObjectiveVector>& front) {
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = i + 1; j < front.size(); ++j) {
      if (moo::compare(front[i], front[j]) != moo::Dominance::kNonDominated) {
        return false;
      }
    }
  }
  return true;
}

void check_report(const api::RunReport& report, std::size_t budget,
                  std::vector<std::string>& problems) {
  if (report.evaluations != budget) {
    problems.push_back("spent " + std::to_string(report.evaluations) +
                       " evaluations of a budget of " + std::to_string(budget));
  }
  if (report.final_front.empty() ||
      !mutually_nondominated(report.final_front)) {
    problems.push_back("final front is empty or not mutually non-dominated");
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t daemon_jobs() {
  const std::size_t cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

void DaemonStats::add(const DaemonStats& o) {
  request_run_sum_s += o.request_run_sum_s;
  request_run_count += o.request_run_count;
  queue_wait_sum_s += o.queue_wait_sum_s;
  queue_wait_count += o.queue_wait_count;
  run_sum_s += o.run_sum_s;
  run_count += o.run_count;
  cache_hits += o.cache_hits;
  cache_lookups += o.cache_lookups;
  cache_stores += o.cache_stores;
}

namespace {

serve::ServeConfig daemon_config(const std::string& cache_dir,
                                 std::size_t jobs) {
  serve::ServeConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.jobs = jobs;
  config.cache_dir = cache_dir;
  return config;
}

/// Sums `field` ("value", "sum" or "count") over the series of `family`
/// whose label `key` (if given) is in `values`.
double sum_series(const Json& metrics, const std::string& family,
                  const std::string& field, const std::string& key = "",
                  const std::vector<std::string>& values = {}) {
  const Json* entry = metrics.find(family);
  if (entry == nullptr) return 0.0;
  double total = 0.0;
  for (const Json& row : entry->find("series")->as_array()) {
    if (!key.empty()) {
      const std::string label =
          moela::util::string_field_or(*row.find("labels"), key);
      if (std::find(values.begin(), values.end(), label) == values.end()) {
        continue;
      }
    }
    total += row.find(field)->as_double();
  }
  return total;
}

}  // namespace

Daemon::Daemon(const std::string& cache_dir, std::size_t jobs)
    : server_(daemon_config(cache_dir, jobs)) {
  server_.start();
  client_.connect("127.0.0.1", server_.port());
}

Daemon::~Daemon() {
  client_.disconnect();
  server_.request_shutdown();
  server_.wait();
}

ServedBatch Daemon::run(const std::vector<api::RunRequest>& batch) {
  using Clock = std::chrono::steady_clock;
  ServedBatch out;
  out.latency_s.assign(batch.size(), kNaN);
  const auto t0 = Clock::now();
  out.reports = client_.run(batch, false, [&](const Json& event) {
    if (moela::util::string_field_or(event, "event") != "finished") return;
    const std::uint64_t index =
        moela::util::u64_field_or(event, "index", batch.size());
    if (index < batch.size()) {
      out.latency_s[index] =
          std::chrono::duration<double>(Clock::now() - t0).count();
    }
  });
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

DaemonStats Daemon::stats() {
  const Json response = client_.metrics();
  const Json& m = *response.find("metrics");
  DaemonStats s;
  s.request_run_sum_s =
      sum_series(m, "moela_request_seconds", "sum", "verb", {"run"});
  s.request_run_count =
      sum_series(m, "moela_request_seconds", "count", "verb", {"run"});
  s.queue_wait_sum_s = sum_series(m, "moela_sched_queue_wait_seconds", "sum");
  s.queue_wait_count =
      sum_series(m, "moela_sched_queue_wait_seconds", "count");
  s.run_sum_s = sum_series(m, "moela_run_seconds", "sum");
  s.run_count = sum_series(m, "moela_run_seconds", "count");
  s.cache_hits = sum_series(m, "moela_cache_lookups_total", "value", "result",
                            {"hit_memory", "hit_disk"});
  s.cache_lookups = sum_series(m, "moela_cache_lookups_total", "value");
  s.cache_stores = sum_series(m, "moela_cache_stores_total", "value");
  return s;
}

SpanFigures span_figures(const std::map<std::string, SpanTotals>& totals) {
  auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  SpanFigures f;
  f.evaluate_calls = static_cast<double>(get(kEvaluate).calls);
  f.evaluate_self_s = get(kEvaluate).self_s;
  f.features_calls = static_cast<double>(get(kFeatures).calls);
  f.neighbor_calls = static_cast<double>(get(kNeighbor).calls);
  f.variation_calls = static_cast<double>(get(kVariation).calls);
  for (const char* name : {kEvaluate, kFeatures, kNeighbor, kVariation}) {
    f.problem_self_s += get(name).self_s;
  }
  f.algo_self_s = get("run").self_s;
  f.run_s = get("run").total_s;
  return f;
}

double sum(std::vector<double> v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

void add_span_metrics(MetricSet& out, const std::vector<SpanFigures>& runs,
                      double (*reduce)(std::vector<double>)) {
  auto field = [&](double SpanFigures::*member) {
    std::vector<double> xs;
    for (const auto& r : runs) xs.push_back(r.*member);
    return reduce(std::move(xs));
  };
  out.add("problem.evaluate.calls", field(&SpanFigures::evaluate_calls),
          "count");
  out.add("problem.evaluate.self_s", field(&SpanFigures::evaluate_self_s),
          "s");
  out.add("problem.features.calls", field(&SpanFigures::features_calls),
          "count");
  out.add("problem.neighbor.calls", field(&SpanFigures::neighbor_calls),
          "count");
  out.add("problem.variation.calls", field(&SpanFigures::variation_calls),
          "count");
  out.add("problem.self_s", field(&SpanFigures::problem_self_s), "s");
  out.add("algo.self_s", field(&SpanFigures::algo_self_s), "s");
  out.add_ratio("algo.share", field(&SpanFigures::algo_self_s), "trace.run_s",
                field(&SpanFigures::run_s), "s");
}

void add_serve_layer_metrics(MetricSet& out,
                             const std::vector<double>& executed_batch_s,
                             const std::vector<double>& overhead_s,
                             const DaemonStats& s) {
  out.add("client.batch_s", median(executed_batch_s), "s");
  out.add("serve.dispatch_s", s.request_run_sum_s / s.request_run_count, "s");
  out.add("sched.queue_wait_s", s.queue_wait_sum_s / s.queue_wait_count, "s");
  out.add("api.run_s", s.run_sum_s / s.run_count, "s");
  out.add_ratio("cache.hit_ratio", s.cache_hits, "cache.lookups",
                s.cache_lookups, "count");
  out.add("cache.stores", s.cache_stores, "count");
  out.add("serve.overhead_s", median(overhead_s), "s");
}

}  // namespace perfbench
