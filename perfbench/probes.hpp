// Layer probes: after a traced run, call public layer functions directly on
// inputs harvested from that run — its evaluated designs, their objective
// stream and its final population — and time each call from outside.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/eval_context.hpp"
#include "core/eval_model.hpp"
#include "core/local_search.hpp"
#include "moo/archive.hpp"
#include "moo/hypervolume.hpp"
#include "moo/scalarize.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = moela::core;

/// Capacity of the learned Eval model's training window (MOELA's
/// |S_train| bound), and the rows of the probe's fit: a fixed size, so the
/// fit measures the trainer at one scale on every workload.
inline constexpr std::size_t kTrainWindow = 10000;
inline constexpr std::size_t kFitRows = 2000;
/// Calls per problem-operation probe, and descents in the local-search
/// probe (MOELA's n_local).
inline constexpr std::size_t kOpProbeCalls = 400;
inline constexpr std::size_t kLocalSearches = 5;

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A uniformly random weight vector on the simplex.
inline moo::ObjectiveVector random_weight(std::size_t m,
                                          moela::util::Rng& rng) {
  moo::ObjectiveVector w(m);
  double sum = 0.0;
  for (double& x : w) sum += (x = rng.uniform() + 1e-9);
  for (double& x : w) x /= sum;
  return w;
}

/// Per-objective ideal and range of `objs`.
inline void ideal_and_scale(const std::vector<moo::ObjectiveVector>& objs,
                            moo::ObjectiveVector& ideal,
                            moo::ObjectiveVector& scale) {
  const std::size_t m = objs.front().size();
  ideal = objs.front();
  moo::ObjectiveVector nadir = objs.front();
  for (const auto& o : objs) {
    for (std::size_t i = 0; i < m; ++i) {
      ideal[i] = std::min(ideal[i], o[i]);
      nadir[i] = std::max(nadir[i], o[i]);
    }
  }
  scale.resize(m);
  for (std::size_t i = 0; i < m; ++i) scale[i] = nadir[i] - ideal[i];
}

/// Runs every probe and adds its metrics. `problem` is the untimed concrete
/// problem the run explored; `harvest` holds its evaluations in order.
template <moo::MooProblem P>
void run_probes(const P& problem, const Harvest<typename P::Design>& harvest,
                const std::vector<typename P::Design>& final_designs,
                const std::vector<moo::ObjectiveVector>& final_objectives,
                const PhvBox& box, std::uint64_t seed, MetricSet& out) {
  using Clock = std::chrono::steady_clock;
  moela::util::Rng rng(seed);
  const auto& designs = harvest.designs;
  const std::size_t n = designs.size();
  const std::size_t m = problem.num_objectives();

  // Problem operations, per call.
  const std::size_t calls = std::min(kOpProbeCalls, n - 1);
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    (void)problem.features(designs[i]);
  }
  out.add("problem.features.us", seconds_since(t0) * 1e6 / calls, "us");
  t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    (void)problem.random_neighbor(designs[i], rng);
  }
  out.add("problem.neighbor.us", seconds_since(t0) * 1e6 / calls, "us");
  t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    const auto child = problem.crossover(designs[i], designs[i + 1], rng);
    (void)problem.mutate(child, rng);
  }
  out.add("problem.variation.us", seconds_since(t0) * 1e6 / (2 * calls),
          "us");

  // Learned Eval model: one fit on the run's last evaluations, labelled
  // with the Eq. (8) distance under a random weight, as MOELA labels its
  // trajectory samples.
  const std::size_t rows = std::min(kFitRows, n);
  const std::vector<moo::ObjectiveVector> window(
      harvest.objectives.end() - static_cast<std::ptrdiff_t>(rows),
      harvest.objectives.end());
  moo::ObjectiveVector ideal, scale;
  ideal_and_scale(window, ideal, scale);
  core::EvalModel model(problem.num_features(), m, kTrainWindow);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t i = n - rows + r;
    const moo::ObjectiveVector w = random_weight(m, rng);
    model.add_sample(problem.features(designs[i]), harvest.objectives[i], w,
                     moo::weighted_distance_scaled(harvest.objectives[i], w,
                                                   ideal, scale));
  }
  t0 = Clock::now();
  model.train(rng);
  out.add("ml.fit.s", seconds_since(t0), "s");
  out.add("ml.fit.samples", static_cast<double>(rows), "count");

  double predict_s = 0.0;
  for (std::size_t i = 0; i < final_designs.size(); ++i) {
    std::vector<double> f = problem.features(final_designs[i]);
    const moo::ObjectiveVector w = random_weight(m, rng);
    t0 = Clock::now();
    (void)model.predict(std::move(f), final_objectives[i], w);
    predict_s += seconds_since(t0);
  }
  out.add("ml.predict.us", predict_s * 1e6 / final_designs.size(), "us");

  // Hypervolume of the final population in the workload's normalized
  // space: the median of a few calls, since one call can be microseconds.
  const std::vector<moo::ObjectiveVector> scaled =
      normalize(final_objectives, box);
  std::vector<double> hv_s;
  for (int rep = 0; rep < 5; ++rep) {
    t0 = Clock::now();
    (void)moo::hypervolume(scaled, moo::ObjectiveVector(m, kPhvRef));
    hv_s.push_back(seconds_since(t0));
  }
  out.add("moo.hypervolume.s", median(hv_s), "s");

  // Pareto archive: replay of the run's objective stream.
  moo::ParetoArchive archive;
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) archive.insert(harvest.objectives[i], i);
  out.add("moo.archive.insert_us", seconds_since(t0) * 1e6 / n, "us");
  out.add("moo.archive.front_size", static_cast<double>(archive.size()),
          "count");

  // Greedy descents from the final population, through the timing adapter
  // so the problem's share can be taken out of the search's own time.
  Tracer tracer(seed);
  TimedProblem<P> timed(problem, &tracer, nullptr);
  core::EvalContext<TimedProblem<P>> ctx(timed, seed, SIZE_MAX);
  ideal_and_scale(final_objectives, ideal, scale);
  for (std::size_t i = 0; i < std::min(kLocalSearches, final_designs.size());
       ++i) {
    const moo::ObjectiveVector w = random_weight(m, rng);
    Scope span(tracer, "core.local_search");
    core::local_search(ctx, final_designs[i], final_objectives[i], w, ideal,
                       scale);
  }
  const auto totals = aggregate(tracer.spans());
  out.add("core.local_search.self_s", totals.at("core.local_search").self_s,
          "s");
  out.add("core.local_search.evals", static_cast<double>(ctx.evaluations()),
          "count");
}

}  // namespace perfbench
