// The noc-* workloads: fixed-seed, fixed-budget runs of the paper's 3D NoC
// design problem, inline through the optimizer registry.
//
// One measurement warms up on the first variant, then cycles round-robin
// through `variants` instances of the workload — variant k has its own BFS
// traffic instance and run seed, both derived from --seed — until every
// variant has run once and --seconds have passed. Each variant's time is
// the median of its runs, and the figures are taken over the variants, so
// every instance weighs the same however often it ran. Quality figures
// (phv, t_target_evals) are exact for a seed and also taken over the
// variants, which keeps one lucky or unlucky search from deciding them.
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "api/problems.hpp"
#include "api/registry.hpp"
#include "bench.hpp"
#include "moo/archive.hpp"
#include "noc/problem.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct NocSpec {
  const char* name;
  const char* algorithm;
  bool small_platform;
  std::size_t budget;
  std::size_t variants;
  /// Fixed normalization box for phv and the time-to-target curve.
  PhvBox box;
  /// The target: this multiple of the PHV of kReferenceDesigns random
  /// designs of the same traffic instance. A target tied to each instance
  /// keeps easy and hard instances from deciding t_target on their own.
  double target_gain;
};

/// Snapshot cadence: the anytime-PHV curve's resolution, and the spacing of
/// the progress events whose intervals are the run_latency samples.
constexpr std::size_t kSnapshotInterval = 50;
constexpr std::size_t kObjectives = 5;
constexpr int kSetupRepeats = 101;
constexpr std::size_t kReferenceDesigns = 200;
/// Stand-in crossing for a variant that never reaches its target.
constexpr double kNever = 1e300;

// Boxes anchored at the origin (every NoC objective is positive), with
// upper bounds above what random designs of any instance reach. Against a
// box fitted tightly to one instance, instances of other scales would
// clip, and phv would mostly measure the instance's scale.
const PhvBox kPaperBox{{0.0, 0.0, 0.0, 0.0, 0.0},
                       {40.0, 800.0, 30.0, 40000.0, 400.0}};
const PhvBox kSmallBox{{0.0, 0.0, 0.0, 0.0, 0.0},
                       {18.0, 100.0, 24.0, 6000.0, 200.0}};

// Run times of one workload's instances spread widely (measured with a
// geometric standard deviation of about 10 % for moela and nsga2 and 40 %
// for moos), so the variant count is what keeps one seed's figures close
// to another's; moos gets a smaller budget to fit more of them.
const NocSpec kSpecs[] = {
    {"noc-moela", "moela", false, 2000, 6, kPaperBox, 1.5},
    {"noc-nsga2", "nsga2", false, 1000, 16, kPaperBox, 1.25},
    {"small-noc-moos", "moos", true, 600, 96, kSmallBox, 1.75},
};

const NocSpec& find_spec(const std::string& name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown noc workload " + name);
}

/// One instance of the workload: what the program receives.
struct Variant {
  api::ProblemOptions problem_options;
  api::RunOptions run_options;
  api::AnyProblem problem;
  std::unique_ptr<api::Optimizer> optimizer;
};

std::vector<Variant> set_up(const NocSpec& spec, std::uint64_t seed) {
  std::vector<Variant> out;
  for (std::size_t k = 0; k < spec.variants; ++k) {
    Variant v;
    v.problem_options.num_objectives = kObjectives;
    v.problem_options.app = "BFS";
    v.problem_options.small_platform = spec.small_platform;
    v.problem_options.seed = derive_seed(seed, 2 * k);
    v.run_options.max_evaluations = spec.budget;
    v.run_options.snapshot_interval = kSnapshotInterval;
    v.run_options.seed = derive_seed(seed, 2 * k + 1);
    v.problem = api::make_problem("noc", v.problem_options);
    v.optimizer = api::registry().create(spec.algorithm, v.problem);
    out.push_back(std::move(v));
  }
  return out;
}

/// PHV of the non-dominated set of kReferenceDesigns seeded random designs
/// of the variant's instance: the yardstick its target is a multiple of.
double reference_phv(const NocSpec& spec, const Variant& v,
                     std::uint64_t seed) {
  moela::util::Rng rng(seed);
  moo::ParetoArchive front;
  for (std::size_t i = 0; i < kReferenceDesigns; ++i) {
    front.insert(v.problem.evaluate(v.problem.random_design(rng)), i);
  }
  return box_phv(front.objective_set(), spec.box);
}

/// Checks shared by every run of a variant: the budget, the front, the
/// final designs re-evaluated on a fresh instance, and agreement with the
/// variant's first run.
std::vector<std::string> check_run(const NocSpec& spec, const Variant& v,
                                   const api::RunReport& report,
                                   const api::RunReport* first) {
  std::vector<std::string> problems;
  check_report(report, spec.budget, problems);
  const api::AnyProblem fresh = api::make_problem("noc", v.problem_options);
  const auto& designs = report.final_designs;
  if (designs.size() != report.final_objectives.size()) {
    problems.push_back("final designs and objectives differ in count");
  } else {
    for (std::size_t i = 0; i < designs.size(); ++i) {
      if (!same_bits({fresh.evaluate(designs[i])},
                     {report.final_objectives[i]})) {
        problems.push_back("final design " + std::to_string(i) +
                           " does not reproduce its objectives");
        break;
      }
    }
  }
  if (first != nullptr && !same_content(report, *first)) {
    problems.push_back("repeated run of the same seed differs");
  }
  return problems;
}

struct TimedRun {
  double wall_s = 0.0;
  api::RunReport report;
};

TimedRun timed_run(Variant& v) {
  const auto t0 = Clock::now();
  TimedRun r;
  r.report = v.optimizer->run(v.run_options);
  r.wall_s = seconds_since(t0);
  return r;
}

double setup_seconds(const NocSpec& spec, std::uint64_t seed,
                     std::vector<Variant>& variants) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    variants = set_up(spec, seed);
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

/// Untraced runs, per variant in run order.
using Runs = std::vector<std::vector<TimedRun>>;

/// Cycles round-robin through the variants until `min_runs` runs are done
/// and `seconds` have passed, checking every run. `first_of_0`, when given,
/// is an earlier run of variant 0 its runs must repeat.
Runs run_variants(const NocSpec& spec, std::vector<Variant>& variants,
                  std::size_t min_runs, double seconds, Outcome& outcome,
                  const api::RunReport* first_of_0 = nullptr) {
  Runs runs(variants.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < min_runs || seconds_since(start) < seconds;
       ++i) {
    const std::size_t k = i % variants.size();
    TimedRun r = timed_run(variants[k]);
    const api::RunReport* first =
        !runs[k].empty() ? &runs[k][0].report : k == 0 ? first_of_0 : nullptr;
    outcome.record(spec.name, check_run(spec, variants[k], r.report, first));
    runs[k].push_back(std::move(r));
  }
  return runs;
}

std::vector<double> evaluation_axis(const api::RunReport& report) {
  std::vector<double> axis;
  for (const auto& s : report.snapshots) {
    axis.push_back(static_cast<double>(s.evaluations));
  }
  return axis;
}

void measure(const NocSpec& spec, const Args& args, Outcome& outcome) {
  std::vector<Variant> variants;
  const double setup_s = setup_seconds(spec, args.seed, variants);
  const auto start = Clock::now();
  // The first run in a process was measured 10-25 % slower than a repeat
  // of it, so one untimed run of variant 0 goes first. It is checked like
  // any other, and the timed runs of variant 0 must repeat it.
  const TimedRun warm_up = timed_run(variants[0]);
  outcome.record(spec.name,
                 check_run(spec, variants[0], warm_up.report, nullptr));
  // One round over the variants, then more until time is up.
  const Runs runs =
      run_variants(spec, variants, variants.size(),
                   args.seconds - seconds_since(start), outcome,
                   &warm_up.report);

  // Per variant: the median of its run times, and the progress intervals
  // and PHV of its first run (its runs are identical but for the clock).
  std::vector<double> variant_s, intervals_s, final_phv;
  for (const auto& variant_runs : runs) {
    std::vector<double> run_s;
    for (const auto& r : variant_runs) run_s.push_back(r.wall_s);
    variant_s.push_back(median(run_s));
    const api::RunReport& first = variant_runs[0].report;
    final_phv.push_back(box_phv(first.final_objectives, spec.box));
    double previous = 0.0;
    for (const auto& s : first.snapshots) {
      intervals_s.push_back(s.seconds - previous);
      previous = s.seconds;
    }
  }
  double variants_s = 0.0;
  for (double s : variant_s) variants_s += s;

  auto& m = outcome.metrics;
  m.add("run_s", geometric_mean(variant_s), "s");
  m.add("phv", mean(final_phv), "normalized");
  m.add("setup_s", setup_s, "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("runs_per_s", static_cast<double>(variant_s.size()) / variants_s,
        "1/s");
  m.add("run_latency_p50_ms", median(intervals_s) * 1e3, "ms");
  m.add("run_latency_p90_ms", tail_percentile(intervals_s, 90.0) * 1e3, "ms");
}

/// Adds t_target_evals and t_target_s. Each variant reaches its own target
/// at some evaluation count (its runs are identical); t_target_evals is the
/// median over the variants, so one lucky or unlucky search does not
/// decide it, and a variant that never gets there counts as slower than any
/// that does. t_target_s reads every run's snapshot clock at that count.
void add_time_to_target(const NocSpec& spec, const Args& args,
                        const std::vector<Variant>& variants, const Runs& runs,
                        Outcome& outcome) {
  const std::vector<double> axis = evaluation_axis(runs[0][0].report);
  std::vector<double> crossing;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const auto& report = runs[k][0].report;
    const double target =
        spec.target_gain *
        reference_phv(spec, variants[k], derive_seed(args.seed, 500 + k));
    std::vector<double> curve;
    for (const auto& s : report.snapshots) {
      curve.push_back(box_phv(s.front, spec.box));
    }
    const double at = evaluation_axis(report) == axis
                          ? first_crossing(axis, curve, target)
                          : kNaN;
    crossing.push_back(std::isnan(at) ? kNever : at);
  }
  const double target_evals = median(crossing);
  if (target_evals >= kNever) {
    outcome.record(spec.name, {"most variants never reached their target"});
    return;
  }
  std::vector<double> target_s;
  for (const auto& variant_runs : runs) {
    for (const auto& r : variant_runs) {
      std::vector<double> seconds_axis;
      for (const auto& s : r.report.snapshots) {
        seconds_axis.push_back(s.seconds);
      }
      target_s.push_back(interpolate(axis, seconds_axis, target_evals));
    }
  }
  outcome.metrics.add("t_target_s", median(target_s), "s");
  outcome.metrics.add("t_target_evals", target_evals, "evaluations");
}

/// Traced run of variant 0: every call into the problem is a child span of
/// the run span; evaluated designs are kept for the probes.
struct TracedRun {
  api::RunReport report;
  std::map<std::string, SpanTotals> totals;
  Harvest<moela::noc::NocDesign> harvest;
};

TracedRun traced_run(const NocSpec& spec, const Variant& v,
                     std::uint64_t trace_id, const std::string& span_file) {
  TracedRun out;
  Tracer tracer(trace_id);
  const auto* noc = v.problem.target<moela::noc::NocProblem>();
  auto optimizer = api::registry().create(
      spec.algorithm,
      api::AnyProblem(TimedProblem<moela::noc::NocProblem>(*noc, &tracer,
                                                           &out.harvest)));
  {
    Scope run(tracer, "run");
    out.report = optimizer->run(v.run_options);
  }
  out.totals = aggregate(tracer.spans());
  if (!span_file.empty()) tracer.write_csv(span_file);
  return out;
}

void trace(const NocSpec& spec, const Args& args, Outcome& outcome) {
  std::vector<Variant> variants = set_up(spec, args.seed);
  const Runs runs = run_variants(spec, variants, variants.size(),
                                 args.seconds / 2, outcome);
  add_time_to_target(spec, args, variants, runs, outcome);
  Variant& v = variants[0];
  const api::RunReport& reference = runs[0][0].report;

  // Untraced and traced runs of the first variant alternate, so both see
  // the same machine state.
  std::vector<double> untraced_s;
  std::vector<TracedRun> traced;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       traced.empty() || seconds_since(start) < args.seconds / 2; ++i) {
    TimedRun r = timed_run(v);
    outcome.record(spec.name, check_run(spec, v, r.report, &reference));
    untraced_s.push_back(r.wall_s);

    const std::string span_file =
        i == 0 ? args.work_dir + "/spans-" + spec.name + ".csv" : "";
    TracedRun t = traced_run(spec, v, derive_seed(args.seed, 1000 + i),
                             span_file);
    std::vector<std::string> problems = check_run(spec, v, t.report,
                                                  &reference);
    if (!same_content(t.report, reference)) {
      problems.push_back("traced run differs from the untraced run");
    }
    // Child plus self time must account for the whole run span.
    const SpanTotals& run = t.totals.at("run");
    double children = 0.0;
    for (const auto& [name, totals] : t.totals) {
      if (name != "run") children += totals.total_s;
    }
    if (std::abs(run.self_s + children - run.total_s) > 1e-9 * run.total_s) {
      problems.push_back("span self and child times do not sum to the run");
    }
    outcome.record(std::string(spec.name) + " traced", problems);
    if (!traced.empty()) t.harvest = {};  // the probes use the first only
    traced.push_back(std::move(t));
  }

  auto& m = outcome.metrics;
  std::vector<SpanFigures> figures;
  std::vector<double> traced_s;
  for (const auto& t : traced) {
    figures.push_back(span_figures(t.totals));
    traced_s.push_back(figures.back().run_s);
  }
  add_span_metrics(m, figures, median);
  m.add("trace.overhead_s", median(traced_s) - median(untraced_s), "s");

  // The same request served by an in-process daemon: once computed (a
  // cache miss), once answered from the cache.
  api::RunRequest request;
  request.problem = "noc";
  request.problem_options = v.problem_options;
  request.algorithm = spec.algorithm;
  request.options = v.run_options;
  const std::string cache_dir = args.work_dir + "/cache-" + spec.name;
  std::filesystem::remove_all(cache_dir);
  DaemonStats stats;
  std::vector<double> batch_s, overhead_s;
  {
    Daemon daemon(cache_dir, daemon_jobs());
    for (bool expect_hit : {false, true}) {
      ServedBatch b = daemon.run({request});
      const api::RunReport& r = b.reports.at(0);
      std::vector<std::string> problems;
      check_report(r, spec.budget, problems);
      if (!same_content(r, reference)) {
        problems.push_back("served report differs from the inline run");
      }
      if (r.provenance.cache_hit != expect_hit) {
        problems.push_back(expect_hit ? "repeat was not a cache hit"
                                      : "first request was a cache hit");
      }
      outcome.record(std::string(spec.name) + " served", problems);
      if (!expect_hit) {
        batch_s.push_back(b.wall_s);
        overhead_s.push_back(b.latency_s.at(0) - r.seconds);
      }
    }
    stats = daemon.stats();
  }
  std::filesystem::remove_all(cache_dir);
  add_serve_layer_metrics(m, batch_s, overhead_s, stats);

  const auto* noc = v.problem.target<moela::noc::NocProblem>();
  run_probes(*noc, traced[0].harvest,
             reference.designs_as<moela::noc::NocDesign>(),
             reference.final_objectives, spec.box,
             derive_seed(args.seed, 2000), m);
}

}  // namespace

bool is_noc_workload(const std::string& name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return true;
  }
  return false;
}

Outcome run_noc_workload(const Args& args) {
  const NocSpec& spec = find_spec(args.workload);
  Outcome outcome;
  if (args.trace) {
    trace(spec, args, outcome);
  } else {
    measure(spec, args, outcome);
  }
  return outcome;
}

}  // namespace perfbench
