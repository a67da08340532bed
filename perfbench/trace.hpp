// Spans recorded from the benchmark's own files around calls into the
// library's layers, and the timing adapter that puts a span around every
// call an algorithm makes into its problem.
//
// A Tracer belongs to one traced run (its trace id) and one thread: the
// traced runs are inline Optimizer::run calls, so every span opens and
// closes on the calling thread, properly nested. Spans stay in memory and
// are written out once the run is over (write_csv).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "moo/objective.hpp"
#include "moo/problem.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace moo = moela::moo;

struct Span {
  /// Static string naming the layer boundary ("problem.evaluate", ...).
  const char* name = "";
  /// Index of the enclosing span in the tracer, -1 for a root.
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

struct SpanTotals {
  std::size_t calls = 0;
  double total_s = 0.0;
  /// Time inside the span not covered by its direct children.
  double self_s = 0.0;
};

/// Per-name call counts, total and self time. A span's self time is its
/// duration minus the durations of its direct children (children nest
/// inside their parent, so this is the uncovered part of its interval).
inline std::map<std::string, SpanTotals> aggregate(
    const std::vector<Span>& spans) {
  std::vector<double> child_time(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end_s - spans[i].start_s;
    SpanTotals& t = out[spans[i].name];
    ++t.calls;
    t.total_s += duration;
    t.self_s += duration - child_time[i];
  }
  return out;
}

class Tracer {
 public:
  explicit Tracer(std::uint64_t trace_id)
      : trace_id_(trace_id), origin_(Clock::now()) {
    spans_.reserve(1 << 16);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span under the innermost open one; returns its index.
  int begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void end(int span) {
    spans_[static_cast<std::size_t>(span)].end_s = now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One line per span: trace id, index, parent, name, start, end.
  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    out << "trace,span,parent,name,start_s,end_s\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << trace_id_ << ',' << i << ',' << s.parent << ',' << s.name << ','
          << s.start_s << ',' << s.end_s << '\n';
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::uint64_t trace_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), span_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

/// Span names of the problem boundary. "bench.harvest" is the adapter's own
/// bookkeeping, kept out of both the problem's and the algorithm's time.
inline constexpr const char* kEvaluate = "problem.evaluate";
inline constexpr const char* kFeatures = "problem.features";
inline constexpr const char* kNeighbor = "problem.neighbor";
inline constexpr const char* kVariation = "problem.variation";
inline constexpr const char* kHarvest = "bench.harvest";

/// Inputs kept from a traced run for the layer probes: every evaluated
/// design with its objective vector, in evaluation order.
template <typename Design>
struct Harvest {
  std::vector<Design> designs;
  std::vector<moo::ObjectiveVector> objectives;
};

/// Satisfies moo::MooProblem by forwarding to `P`, with a span around every
/// call. It passes the caller's RNG straight through and draws nothing
/// itself, so a traced run makes exactly the untraced run's decisions.
template <moo::MooProblem P>
class TimedProblem {
 public:
  using Design = typename P::Design;

  TimedProblem(P problem, Tracer* tracer, Harvest<Design>* harvest)
      : problem_(std::move(problem)), tracer_(tracer), harvest_(harvest) {}

  std::size_t num_objectives() const { return problem_.num_objectives(); }
  std::size_t num_features() const { return problem_.num_features(); }

  moo::ObjectiveVector evaluate(const Design& d) const {
    moo::ObjectiveVector obj;
    {
      Scope span(*tracer_, kEvaluate);
      obj = problem_.evaluate(d);
    }
    if (harvest_ != nullptr) {
      Scope span(*tracer_, kHarvest);
      harvest_->designs.push_back(d);
      harvest_->objectives.push_back(obj);
    }
    return obj;
  }
  std::vector<double> features(const Design& d) const {
    Scope span(*tracer_, kFeatures);
    return problem_.features(d);
  }
  Design random_neighbor(const Design& d, moela::util::Rng& rng) const {
    Scope span(*tracer_, kNeighbor);
    return problem_.random_neighbor(d, rng);
  }
  Design random_design(moela::util::Rng& rng) const {
    Scope span(*tracer_, kVariation);
    return problem_.random_design(rng);
  }
  Design crossover(const Design& a, const Design& b,
                   moela::util::Rng& rng) const {
    Scope span(*tracer_, kVariation);
    return problem_.crossover(a, b, rng);
  }
  Design mutate(const Design& d, moela::util::Rng& rng) const {
    Scope span(*tracer_, kVariation);
    return problem_.mutate(d, rng);
  }

 private:
  P problem_;
  Tracer* tracer_;
  Harvest<Design>* harvest_;
};

}  // namespace perfbench
