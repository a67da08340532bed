// Batched execution layer, part 3: the thread-pooled Executor.
//
// Schedules a vector of RunRequests onto a fixed pool of worker threads and
// hands back one std::future<RunReport> per request (index-aligned), so the
// paper's (application x objectives x algorithm x seed) grid runs as one
// batch instead of a serial loop:
//
//   api::Executor executor({.jobs = 4, .cache = &cache});
//   api::RunControl control;            // optional: progress + Ctrl-C stop
//   auto reports = executor.run_all(requests, &control);
//
// Guarantees:
//   * Determinism — each run owns its EvalContext and RNG (seeded from its
//     request), so reports are bit-identical to serial execution for the
//     same seeds, regardless of jobs or completion order.
//   * Observability — progress events flow through the shared RunControl
//     at the snapshot cadence, plus one `finished` event per run.
//   * Cancellation — RunControl::request_stop() stops queued requests
//     before they start and winds down in-flight runs at their next budget
//     check; every future still yields a well-formed report.
//   * Caching — with a ResultCache attached, a request whose cache_key()
//     hits is served without running (provenance.cache_hit = true).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "api/optimizer.hpp"
#include "api/request.hpp"
#include "api/result_cache.hpp"
#include "util/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace moela::api {

struct ExecutorConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t jobs = 0;
  /// Optional result cache consulted before and filled after each run
  /// (not owned; must outlive the Executor).
  ResultCache* cache = nullptr;
  /// Optional per-run JSONL logger (not owned; must outlive the Executor).
  /// Left null, the Executor falls back to RunLogger::from_env(), so
  /// MOELA_RUN_LOG=<path> enables structured logs in any Executor-based
  /// tool without code changes.
  class RunLogger* run_log = nullptr;
  /// Optional telemetry registry (not owned; must outlive the Executor).
  /// Each executed (not cached) run observes its wall time into a
  /// per-algorithm moela_run_seconds histogram, and checkpointing counts
  /// into moela_snapshots_written_total / moela_runs_resumed_total.
  /// Telemetry only: nothing here feeds back into reports or cache keys.
  util::MetricsRegistry* metrics = nullptr;
  /// Directory for persisted RunSnapshots (next to the run log, in
  /// deployments that keep both). Empty disables persistence: checkpointed
  /// runs still stream snapshots on progress events, they just leave no
  /// disk state. Files follow the ResultCache discipline — schema-salted
  /// fingerprint hashed to the file stem, atomic write-temp-then-rename —
  /// and a request that asks to checkpoint resumes from its snapshot file
  /// automatically when one exists. A completed (non-cancelled) run deletes
  /// its file: the snapshot's job is done.
  std::string snapshot_dir{};
  /// When false, no worker pool is spawned and submit()/run_all() refuse:
  /// the owner drives execute_one() from its own worker threads instead
  /// (serve::sched::Scheduler does this, so queue policy lives in one
  /// place and threads are not doubled). jobs() still reports the
  /// configured parallelism either way.
  bool pool = true;
};

class Executor {
 public:
  explicit Executor(ExecutorConfig config = {});
  /// Joins the workers after draining the queue (a pending stop request
  /// makes the drain fast: remaining runs return cancelled reports).
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Configured parallelism (the resolved `jobs`), whether or not a pool
  /// was spawned.
  std::size_t jobs() const { return jobs_; }

  /// Shared per-batch bookkeeping for the `completed / total` progress
  /// fields. Public so an external scheduler dispatching a batch's runs
  /// one at a time (execute_one) can keep one shared tally per batch.
  struct BatchState {
    std::atomic<std::size_t> completed{0};
    std::size_t total = 0;
  };

  /// Schedules the batch; returns futures index-aligned with `requests`.
  /// A run that throws (unknown registry key, bad problem options, ...)
  /// surfaces the exception from that future's get(). `control` (optional)
  /// is shared by every run in the batch. Throws std::logic_error when the
  /// pool is disabled (ExecutorConfig::pool = false).
  std::vector<std::future<RunReport>> submit(std::vector<RunRequest> requests,
                                             RunControl* control = nullptr);

  /// submit() + get(): blocks until the whole batch is done and returns the
  /// reports index-aligned with `requests`.
  std::vector<RunReport> run_all(std::vector<RunRequest> requests,
                                 RunControl* control = nullptr);

  /// Executes one request synchronously ON THE CALLING THREAD — the entry
  /// point for external schedulers (serve::sched::Scheduler) that own
  /// their worker pools but must keep cache, run-log, provenance, and
  /// progress semantics identical to pool execution. `batch` is the
  /// logical batch's shared tally (never null; total set by the caller).
  /// Exceptions propagate to the caller.
  RunReport execute_one(const RunRequest& request, RunControl* control,
                        std::size_t index,
                        const std::shared_ptr<BatchState>& batch);

 private:
  RunReport execute(const RunRequest& request, RunControl* control,
                    std::size_t index, const std::shared_ptr<BatchState>& batch);
  void worker_loop();

  ExecutorConfig config_;
  /// Pre-resolved checkpoint counters (null when metrics is null) so the
  /// hot path never does a registry name lookup.
  util::Counter* snapshots_written_ = nullptr;
  util::Counter* runs_resumed_ = nullptr;
  std::size_t jobs_ = 0;
  std::vector<std::thread> workers_;
  util::Mutex mutex_;
  util::CondVar wake_;
  std::deque<std::packaged_task<RunReport()>> queue_ MOELA_GUARDED_BY(mutex_);
  bool shutting_down_ MOELA_GUARDED_BY(mutex_) = false;
};

}  // namespace moela::api
