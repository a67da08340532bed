// Sharded batch execution: the coordinator that fans one RunRequest batch
// across one or more moela_serve daemons and merges the answers back into
// request order. A drop-in sibling of api::Executor for out-of-process
// work, from a fleet of one daemon (every moela_cli --connect batch comes
// through here) to workloads too big for one machine:
//
//   api::ShardedExecutorConfig config;
//   config.endpoints = {{"10.0.0.1", 7313}, {"10.0.0.2", 7313}};
//   api::ShardedExecutor sharded(config);
//   std::vector<api::RunReport> reports = sharded.run_all(requests);
//
// Guarantees (mirroring the Executor's):
//   * Determinism — reports[i] always answers requests[i], and because a
//     daemon-served report is bit-identical to inline execution for fixed
//     seeds (the serde layer carries hexfloat doubles end to end), a
//     sharded sweep is bit-identical to an inline run regardless of the
//     shard count, policy, or which shard served which request.
//   * Fault tolerance — a shard that cannot be reached or fails mid-batch
//     is retired for the rest of the run and its outstanding requests are
//     requeued onto the surviving shards; each request is attempted at
//     most `max_attempts` times, so a poison request terminates instead of
//     ping-ponging. A fleet of two or more healthy shards checkpoints:
//     requests stream RunSnapshots while they run, and a request requeued
//     from a dead shard ships its latest snapshot to the survivor — the
//     continuation replays to the same bit-identical report instead of
//     starting over.
//   * Fleet of one — with one healthy shard after the probe, the
//     coordinator acts as a plain client of that daemon: the whole batch
//     travels as one wire batch (unless steal_chunk says otherwise),
//     nothing checkpoints (there is no survivor to resume on), and a
//     request the daemon rejects fails on its first attempt. If the
//     rejected wire batch held several requests, each is first re-sent
//     alone, one after another, so the error names the culprit.
//   * Observability — per-run `finished` events (and, with
//     `stream_progress`, the daemons' snapshot-cadence progress events)
//     are forwarded to the RunControl passed to run_all, index-tagged in
//     the merged batch order; shard_stats() reports placement afterwards.
//   * Cancellation — a RunControl stop crosses the wire: every shard with
//     an in-flight chunk sends the protocol's cancel verb, the daemons
//     stop those runs at their next budget check, and the merged batch
//     marks exactly the unfinished runs cancelled (runs completed before
//     the stop keep their bit-identical reports; unstarted requests
//     return cancelled reports, as the Executor's queued runs do). A
//     cancelled chunk answers normally, so cancellation never charges
//     attempts or retires a shard.
//
// Each shard is driven by one thread owning one serve::Client (the Client
// is single-connection, not thread-safe). Placement policies:
//   * kRoundRobin   — request i goes to healthy shard (i mod k), decided
//                     up front; shards only pick up requeued work from
//                     failed peers.
//   * kWorkStealing — shards pull `steal_chunk` requests from one shared
//                     queue as their previous replies arrive, so a fast
//                     (or cache-warm) daemon naturally serves more of the
//                     batch.
//   * kWeighted     — static like round-robin, but each request goes to
//                     the shard with the lowest projected utilization
//                     (health-reported inflight + queued load, plus what
//                     this placement already assigned, over the daemon's
//                     worker count) — so a big or idle daemon owns more of
//                     the batch and a busy one is not pile-driven. Needs
//                     the health probe; without it every shard looks
//                     identical and placement degrades to round-robin.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "api/request.hpp"
// moela-lint: allow(layer-order) coordinator-as-client exception, see docs/architecture.md
#include "serve/sched/policy.hpp"

namespace moela::api {

enum class ShardPolicy { kRoundRobin, kWorkStealing, kWeighted };

/// "round-robin" / "work-steal" (also accepts "work-stealing") /
/// "weighted".
bool parse_shard_policy(const std::string& text, ShardPolicy& out);
std::string shard_policy_name(ShardPolicy policy);

/// One moela_serve daemon address.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  /// TCP port; 0 means the moela_serve default (serve::kDefaultPort).
  int port = 0;

  std::string to_string() const;
};

/// Parses "host:port" / ":port" / "host" / "port" (the same rules as
/// moela_cli --connect). Returns false on a malformed port.
bool parse_shard_endpoint(const std::string& spec, ShardEndpoint& out);

struct ShardedExecutorConfig {
  /// The daemon fleet. At least one endpoint is required; when two or
  /// more pass the health probe, every dispatched request checkpoints
  /// (RunRequest::checkpoint) so a dead shard's runs resume on a survivor.
  std::vector<ShardEndpoint> endpoints;
  ShardPolicy policy = ShardPolicy::kWorkStealing;
  /// Per-request cap on executions attempted across shards before the
  /// request is declared failed (>= 1). Only a request that fails ALONE is
  /// charged: a failed multi-request chunk is requeued with its members
  /// forced to retry one at a time (the failure cannot be attributed to
  /// any one member), and transport failures that requeue never-started
  /// requests do not count either. A fleet of one does not retry a
  /// request its daemon rejected: the cap is 1 there.
  std::size_t max_attempts = 3;
  /// Requests submitted per wire batch (both policies pull this many at a
  /// time). 0 (the default) sends a fleet of one the whole batch at once;
  /// in a larger fleet it sizes each shard's chunk to the daemon's
  /// health-probed worker count, so one chunk saturates the daemon's
  /// Executor pool. An explicit value >= 1 fixes it (a failed chunk is
  /// retried member by member, so smaller = finer retry granularity).
  /// Fleet auto sizing needs the probe: with probe_health off (or a daemon
  /// predating the health verb) it degrades to 1 — set an explicit value
  /// there.
  std::size_t steal_chunk = 0;
  /// Probe each endpoint's `health` verb before placement and leave
  /// endpoints that do not answer (or are draining) out of the initial
  /// partition. Disable to let connect failures surface through the
  /// requeue machinery instead.
  bool probe_health = true;
  /// Ask the daemons for snapshot-cadence progress events and forward
  /// them (finished events are always forwarded).
  bool stream_progress = false;
  /// The batch's scheduling class, forwarded to every shard on every wire
  /// batch (including requeued chunks), so a fleet-wide sweep competes
  /// under one class everywhere. Scheduling only: reports stay
  /// bit-identical to inline execution whatever the class.
  serve::sched::Priority priority = serve::sched::Priority::kNormal;
};

/// Per-shard outcome of the last run_all(), index-aligned with
/// config.endpoints.
struct ShardStats {
  std::string endpoint;
  /// Answered the health probe (with probe_health off: assumed healthy
  /// until its connect fails).
  bool healthy = false;
  /// Reports this shard contributed to the merged batch.
  std::size_t completed = 0;
  /// Chunks that failed on this shard (transport or server error).
  std::size_t failures = 0;
  /// Completed requests that resumed from a mid-run snapshot (i.e. work
  /// this shard continued for a failed peer rather than restarted).
  std::size_t resumed = 0;
  /// The shard's last error, empty when it never failed.
  std::string error;
};

class ShardedExecutor {
 public:
  /// Throws std::invalid_argument on an empty endpoint list or zero
  /// max_attempts.
  explicit ShardedExecutor(ShardedExecutorConfig config);

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Fans the batch across the fleet and blocks until every request has a
  /// report (or has exhausted its attempts). Reports are index-aligned
  /// with `requests`. Throws std::runtime_error when requests remain
  /// unserved without a stop having been requested; the message names the
  /// failing endpoints and requests. Not thread-safe: one run_all at a
  /// time.
  std::vector<RunReport> run_all(const std::vector<RunRequest>& requests,
                                 RunControl* control = nullptr);

  /// Placement/fault outcome of the last run_all().
  const std::vector<ShardStats>& shard_stats() const { return stats_; }

 private:
  ShardedExecutorConfig config_;
  std::vector<ShardStats> stats_;
};

}  // namespace moela::api
