// Shared machinery for the archive-based ML-guided local-search baselines
// (MOOS and MOO-STAGE).
//
// Both frameworks search over the entire Pareto archive "for all objectives"
// (Sec. IV.B of the MOELA paper) and accept moves by Pareto-hypervolume
// improvement — the repeated PHV computation whose cost MOELA's
// decomposition-based local search is designed to avoid. This header holds
// the design-carrying archive and the PHV-greedy descent they share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "core/eval_context.hpp"
#include "moo/hypervolume.hpp"
#include "moo/objective.hpp"
#include "moo/pareto.hpp"
#include "moo/problem.hpp"

namespace moela::baselines {

/// A bounded Pareto archive that also stores designs (EvalContext's archive
/// only stores objectives).
template <moo::MooProblem P>
class DesignArchive {
 public:
  using Design = typename P::Design;

  struct Entry {
    Design design;
    moo::ObjectiveVector objectives;
  };

  explicit DesignArchive(std::size_t capacity) : capacity_(capacity) {}

  /// Pareto insertion; bounded by crowding-distance eviction.
  bool insert(Design design, moo::ObjectiveVector obj) {
    for (const auto& e : entries_) {
      const auto d = moo::compare(e.objectives, obj);
      if (d == moo::Dominance::kDominates || d == moo::Dominance::kEqual) {
        return false;
      }
    }
    std::erase_if(entries_, [&](const Entry& e) {
      return moo::compare(obj, e.objectives) == moo::Dominance::kDominates;
    });
    entries_.push_back({std::move(design), std::move(obj)});
    if (capacity_ > 0 && entries_.size() > capacity_) evict();
    return true;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  std::vector<moo::ObjectiveVector> objective_set() const {
    std::vector<moo::ObjectiveVector> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.objectives);
    return out;
  }

  /// PHV gain of hypothetically adding `obj` (without inserting): its
  /// exclusive hypervolume against the archive, all normalized with the
  /// ideal/nadir of archive + candidate. This is the per-step cost center of
  /// the PHV-driven searches.
  double phv_gain(const moo::ObjectiveVector& obj) const {
    if (entries_.empty()) return 1.0;
    auto points = objective_set();
    points.push_back(obj);
    auto normalized = moo::normalize(points, moo::ideal_point(points),
                                     moo::nadir_point(points));
    const moo::ObjectiveVector candidate = std::move(normalized.back());
    normalized.pop_back();
    return moo::hypervolume_contribution(
        normalized, candidate, moo::ObjectiveVector(obj.size(), 1.1));
  }

 private:
  void evict() {
    const auto points = objective_set();
    std::vector<std::size_t> front(points.size());
    for (std::size_t i = 0; i < front.size(); ++i) front[i] = i;
    const auto dist = moo::crowding_distance(points, front);
    std::size_t victim = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < dist.size(); ++i) {
      if (dist[i] < best) {
        best = dist[i];
        victim = i;
      }
    }
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;
};

struct PhvSearchConfig {
  std::size_t neighbors_per_step = 6;
  std::size_t max_steps = 40;
};

/// Greedy PHV-improvement descent from `start`: per step, evaluates a batch
/// of neighbors, takes the one with the largest positive archive-PHV gain,
/// inserts every non-dominated visit into the archive. Returns the total
/// PHV gain realized and appends visited-feature rows for STAGE-style
/// training.
template <moo::MooProblem P>
double phv_local_search(core::EvalContext<P>& ctx,
                        DesignArchive<P>& archive,
                        const typename P::Design& start,
                        const PhvSearchConfig& config,
                        std::vector<std::vector<double>>* trajectory) {
  typename P::Design current = start;
  double total_gain = 0.0;
  if (trajectory != nullptr) {
    trajectory->push_back(ctx.problem().features(current));
  }
  for (std::size_t step = 0; step < config.max_steps; ++step) {
    if (ctx.exhausted()) break;
    double best_gain = 0.0;
    typename P::Design best_neighbor = current;
    moo::ObjectiveVector best_obj;
    bool improved = false;
    for (std::size_t k = 0; k < config.neighbors_per_step; ++k) {
      if (ctx.exhausted()) break;
      typename P::Design n = ctx.problem().random_neighbor(current, ctx.rng());
      moo::ObjectiveVector obj = ctx.evaluate(n);
      const double gain = archive.phv_gain(obj);  // costly PHV call
      if (gain > best_gain) {
        best_gain = gain;
        best_neighbor = std::move(n);
        best_obj = std::move(obj);
        improved = true;
      }
    }
    if (!improved) break;
    archive.insert(best_neighbor, best_obj);
    current = std::move(best_neighbor);
    total_gain += best_gain;
    if (trajectory != nullptr) {
      trajectory->push_back(ctx.problem().features(current));
    }
  }
  return total_gain;
}

}  // namespace moela::baselines
