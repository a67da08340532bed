// Self-tests of the benchmark's own arithmetic, on synthetic spans and
// samples, plus the adapter's promise that tracing changes no decision.
// Run with `perfbench --self-test` (run.py does so before every run).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "api/problems.hpp"
#include "api/registry.hpp"
#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "perfbench self-test FAILED: " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

void test_self_time() {
  // run [0,10] > a [1,3] > b [2,2.5];  run > a [4,5]
  const std::vector<Span> spans = {{"run", -1, 0.0, 10.0},
                                   {"a", 0, 1.0, 3.0},
                                   {"b", 1, 2.0, 2.5},
                                   {"a", 0, 4.0, 5.0}};
  const auto t = aggregate(spans);
  expect(near(t.at("run").self_s, 7.0), "run self time excludes children");
  expect(t.at("a").calls == 2, "calls counted per name");
  expect(near(t.at("a").total_s, 3.0), "total time sums calls");
  expect(near(t.at("a").self_s, 2.5), "nested child leaves its parent");
  expect(near(t.at("b").self_s, 0.5), "leaf self time is its duration");
  expect(near(t.at("run").self_s + t.at("a").total_s, t.at("run").total_s),
         "self plus direct children is the span");

  Tracer tracer(7);
  {
    Scope outer(tracer, "outer");
    Scope inner(tracer, "inner");
  }
  Scope sibling(tracer, "sibling");
  expect(tracer.spans().size() == 3 && tracer.spans()[1].parent == 0 &&
             tracer.spans()[2].parent == -1,
         "scopes record their enclosing span");
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(tail_percentile(v, 90.0) == 90.0, "p90 of 1..100 is 90");
  expect(tail_percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
  v.pop_back();
  expect(std::isnan(tail_percentile(v, 90.0)),
         "p90 needs 10 samples beyond it");
  expect(std::isnan(tail_percentile({1, 2, 3}, 50.0)),
         "p50 of three samples is not a tail");
  expect(median({3, 1, 2}) == 2.0, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");
  expect(std::isnan(median({})), "empty median");
  expect(mean({1, 2, 6}) == 3.0, "mean");
  expect(near(geometric_mean({1, 4, 16}), 4.0), "geometric mean");
  expect(std::isnan(geometric_mean({})), "empty geometric mean");
}

void test_phv() {
  const PhvBox unit{{0.0, 0.0}, {1.0, 1.0}};
  const double full = 1.0;
  expect(near(box_phv({{0.0, 0.0}}, unit), full), "ideal point fills box");
  expect(near(box_phv({{-3.0, 0.0}}, unit), full),
         "points below the lower bound clip to it");
  expect(near(box_phv({{0.5, 0.5}}, unit), 0.36 / 1.21), "inner point");
  expect(box_phv({{2.0, 2.0}}, unit) == 0.0, "point past the reference");
  const PhvBox scaled{{10.0, 100.0}, {20.0, 300.0}};
  expect(near(box_phv({{15.0, 200.0}}, scaled), 0.36 / 1.21),
         "bounds rescale each objective");
  expect(near(box_phv({{0.5, 0.5}, {0.5, 0.5}}, unit), 0.36 / 1.21),
         "duplicates add nothing");

  const std::vector<double> xs = {0, 10, 20}, ys = {0, 0.5, 1};
  expect(near(first_crossing(xs, ys, 0.75), 15.0), "crossing interpolates");
  expect(first_crossing(xs, ys, 0.0) == 0.0, "crossing at the start");
  expect(std::isnan(first_crossing(xs, ys, 2.0)), "curve never crosses");
  expect(near(interpolate(xs, ys, 15.0), 0.75), "interpolate inside");
  expect(interpolate(xs, ys, 99.0) == 1.0, "interpolate clamps");
}

void test_ratios() {
  MetricSet m;
  m.add_ratio("hit_ratio", 3, "lookups", 4, "count");
  expect(m.find("hit_ratio") && m.find("hit_ratio")->value == 0.75,
         "ratio value");
  expect(m.find("lookups") && m.find("lookups")->value == 4.0 &&
             m.find("lookups")->unit == "count",
         "ratio carries its base");
  m.add_ratio("share", 1, "base", 0, "s");
  expect(std::isnan(m.find("share")->value) && m.find("base")->value == 0.0,
         "a ratio over an empty base is unmeasured, base still reported");

  // Two runs of 10 s and 30 s with 4 s and 6 s of their own: summed, the
  // algorithm's share is 10/40, not the mean of 0.4 and 0.2.
  SpanFigures a, b;
  a.algo_self_s = 4.0;
  a.run_s = 10.0;
  b.algo_self_s = 6.0;
  b.run_s = 30.0;
  MetricSet spans;
  add_span_metrics(spans, {a, b}, sum);
  expect(spans.find("algo.share")->value == 0.25 &&
             spans.find("trace.run_s")->value == 40.0,
         "summed span figures share one base");
  MetricSet medians;
  add_span_metrics(medians, {a, b, b}, median);
  expect(medians.find("algo.self_s")->value == 6.0,
         "repeated runs reduce by median");
}

void test_seeds_and_adapter() {
  expect(derive_seed(1, 0) == derive_seed(1, 0), "seed streams repeat");
  expect(derive_seed(1, 0) != derive_seed(1, 1) &&
             derive_seed(1, 0) != derive_seed(2, 0),
         "seed streams differ");

  const api::AnyProblem problem = api::make_problem("zdt1");
  api::RunOptions options;
  options.max_evaluations = 600;
  options.snapshot_interval = 100;
  const api::RunReport plain =
      api::registry().create("moela-noguide", problem)->run(options);
  Tracer tracer(1);
  Harvest<api::AnyDesign> harvest;
  const api::RunReport traced =
      api::registry()
          .create("moela-noguide",
                  api::AnyProblem(TimedProblem<api::AnyProblem>(
                      problem, &tracer, &harvest)))
          ->run(options);
  expect(same_content(plain, traced), "tracing changes no decision");
  expect(harvest.objectives.size() == options.max_evaluations,
         "every evaluation is harvested");
  expect(mutually_nondominated(plain.final_front) &&
             !mutually_nondominated({{1.0, 1.0}, {2.0, 2.0}}),
         "non-dominance check");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  test_self_time();
  test_percentiles();
  test_phv();
  test_ratios();
  test_seeds_and_adapter();
  if (failures == 0) std::cerr << "perfbench self-test: all passed\n";
  return failures;
}

}  // namespace perfbench
