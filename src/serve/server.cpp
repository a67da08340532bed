#include "serve/server.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "api/problems.hpp"
#include "api/registry.hpp"
#include "api/serde.hpp"
#include "api/snapshot.hpp"
#include "util/log.hpp"
#include "util/numeric.hpp"

namespace moela::serve {
namespace {

using util::Json;

/// Best-effort id extraction so even a malformed verb object gets a
/// correlated error response.
std::uint64_t message_id(const Json& message) {
  if (const Json* id = message.find("id")) {
    try {
      return id->as_u64();
    } catch (const util::JsonError&) {
    }
  }
  return 0;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// The cache-counter block shared by the cache_stats and health verbs
/// (one source of truth so the two views cannot drift).
Json cache_counters_json(bool enabled, const api::ResultCache* cache) {
  Json out = Json::object();
  out.set("enabled", enabled);
  if (enabled && cache != nullptr) {
    const api::ResultCache::Stats stats = cache->stats();
    out.set("memory_hits", stats.memory_hits)
        .set("disk_hits", stats.disk_hits)
        .set("misses", stats.misses)
        .set("stores", stats.stores)
        .set("evictions", stats.evictions);
  }
  return out;
}

}  // namespace

Server::Server(ServeConfig config)
    : config_(std::move(config)),
      cache_(config_.use_cache
                 ? (config_.cache_dir.empty()
                        ? api::ResultCache::default_disk_dir()
                        : config_.cache_dir)
                 : std::string()) {
  api::ExecutorConfig executor_config;
  executor_config.jobs = config_.jobs;
  executor_config.cache = config_.use_cache ? &cache_ : nullptr;
  executor_config.run_log = config_.run_log;
  executor_config.metrics = &metrics_;
  executor_config.snapshot_dir = config_.snapshot_dir;
  // The scheduler brings the worker pool; the Executor contributes its
  // execute path (cache, run-log, provenance) through execute_one.
  executor_config.pool = false;
  executor_ = std::make_unique<api::Executor>(executor_config);
  if (config_.use_cache) cache_.set_metrics(&metrics_);
  sched::SchedulerConfig sched_config;
  sched_config.workers = executor_->jobs();
  sched_config.weights = config_.weights;
  sched_config.max_queued = config_.max_queued;
  sched_config.metrics = &metrics_;
  scheduler_ = std::make_unique<sched::Scheduler>(*executor_, sched_config);

  // Pre-resolve the per-verb dispatch telemetry for the protocol's fixed
  // verb set; handle_line then only touches atomics. Anything else (typos,
  // garbage lines) shares the "other" series so clients cannot grow label
  // cardinality.
  const char* request_help = "Protocol requests handled by verb";
  const char* latency_help = "Line-handling latency by verb, seconds (for "
                             "'run': admission + dispatch, not run time)";
  const std::vector<double> latency_bounds =
      util::exponential_bounds(1e-5, 4.0, 12);
  for (const char* verb :
       {"ping", "list_algorithms", "list_problems", "cache_stats", "health",
        "metrics", "run", "cancel", "shutdown", "other"}) {
    VerbMetrics vm;
    vm.requests =
        &metrics_.counter("moela_requests_total", request_help,
                          {{"verb", verb}});
    vm.seconds = &metrics_.histogram("moela_request_seconds", latency_help,
                                     latency_bounds, {{"verb", verb}});
    if (std::string(verb) == "other") {
      other_verb_metrics_ = vm;
    } else {
      verb_metrics_.emplace(verb, vm);
    }
  }

  // Alias the Executor's checkpoint counters (same name + help resolve to
  // the same series) so the health verb reads them without a name lookup.
  runs_resumed_counter_ = &metrics_.counter(
      "moela_runs_resumed_total",
      "Runs resumed from a RunSnapshot instead of starting fresh");
  snapshots_written_counter_ = &metrics_.counter(
      "moela_snapshots_written_total",
      "RunSnapshots persisted to the snapshot directory");
}

Server::~Server() {
  request_shutdown();
  wait();
}

void Server::start() {
  if (started_) throw std::runtime_error("moela_serve: already started");

  if (::pipe(signal_pipe_) != 0) {
    throw std::runtime_error("moela_serve: pipe() failed");
  }
  ::fcntl(signal_pipe_[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(signal_pipe_[1], F_SETFD, FD_CLOEXEC);

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_text = util::dec(config_.port);
  if (::getaddrinfo(config_.host.c_str(), port_text.c_str(), &hints,
                    &resolved) != 0 ||
      resolved == nullptr) {
    throw std::runtime_error("moela_serve: cannot resolve host '" + config_.host +
                             "'");
  }
  listen_fd_ = ::socket(resolved->ai_family, resolved->ai_socktype,
                        resolved->ai_protocol);
  if (listen_fd_ < 0) {
    ::freeaddrinfo(resolved);
    throw std::runtime_error("moela_serve: socket() failed");
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
  const int bind_rc =
      ::bind(listen_fd_, resolved->ai_addr, resolved->ai_addrlen);
  ::freeaddrinfo(resolved);
  if (bind_rc != 0 || ::listen(listen_fd_, 128) != 0) {
    const std::string what = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("moela_serve: cannot listen on " + config_.host +
                             ":" + port_text + " (" + what + ")");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }

  started_ = true;
  started_at_.reset();  // uptime counts from a successful bind
  accept_thread_ = std::thread([this] { accept_loop(); });
  watcher_thread_ = std::thread([this] { watcher_loop(); });
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (drain) or fatal error
    }
    if (shutdown_requested()) {
      ::close(fd);
      break;
    }
    reap_connections();
    auto connection = std::make_shared<Connection>(
        fd, next_lane_.fetch_add(1, std::memory_order_relaxed));
    util::MutexLock lock(conn_mutex_);
    connections_.emplace_back(connection, std::thread([this, connection] {
                                serve_connection(connection);
                              }));
    if (shutdown_requested()) {
      // begin_drain() may have run between accept() and the emplace above
      // and missed this connection; nudge its reader ourselves (stop_ is
      // set before the watcher drains, so one of the two always sees it).
      ::shutdown(connection->fd, SHUT_RD);
    }
  }
}

void Server::watcher_loop() {
  for (;;) {
    char wakeups[64];
    ssize_t n;
    do {
      n = ::read(signal_pipe_[0], wakeups, sizeof(wakeups));
    } while (n < 0 && errno == EINTR);
    if (n <= 0 || watcher_exit_.load(std::memory_order_relaxed)) return;
    if (shutdown_requested()) begin_drain();
    if (hard_stop_.load(std::memory_order_relaxed)) {
      util::MutexLock lock(control_mutex_);
      for (api::RunControl* control : active_controls_) {
        control->request_stop();
      }
    }
  }
}

void Server::begin_drain() {
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  util::MutexLock lock(conn_mutex_);
  for (auto& [connection, thread] : connections_) {
    // Nudge idle readers; batch responses still flow (write side stays
    // open) and each reader exits once its batches are joined.
    if (!connection->done.load(std::memory_order_relaxed)) {
      ::shutdown(connection->fd, SHUT_RD);
    }
  }
}

void Server::reap_connections() {
  util::MutexLock lock(conn_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->first->done.load(std::memory_order_acquire) &&
        it->second.joinable()) {
      it->second.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::wait() {
  util::MutexLock lock(wait_mutex_);
  if (!started_ || joined_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Re-issue the drain nudge now that the accept loop is gone: the
  // watcher's begin_drain() and the accept loop's own nudge cover the
  // registration window between them, but a reader parked in recv() can
  // still miss its SHUT_RD wake in that instant; nudging again here is
  // idempotent and guarantees every reader unblocks before the joins
  // below.
  begin_drain();
  // No new connections can appear past this point.
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> remaining;
  {
    util::MutexLock conn_lock(conn_mutex_);
    remaining.swap(connections_);
  }
  for (auto& [connection, thread] : remaining) {
    if (thread.joinable()) thread.join();
  }
  watcher_exit_.store(true, std::memory_order_relaxed);
  const char byte = 'x';
  [[maybe_unused]] ssize_t ignored = ::write(signal_pipe_[1], &byte, 1);
  if (watcher_thread_.joinable()) watcher_thread_.join();
  close_fd(listen_fd_);
  close_fd(signal_pipe_[0]);
  close_fd(signal_pipe_[1]);
  joined_ = true;
}

void Server::request_shutdown() { signal_shutdown(); }

void Server::signal_shutdown() {
  stop_.store(true, std::memory_order_relaxed);
  if (signal_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t ignored = ::write(signal_pipe_[1], &byte, 1);
  }
}

void Server::signal_hard_stop() {
  hard_stop_.store(true, std::memory_order_relaxed);
  signal_shutdown();
}

void Server::serve_connection(const std::shared_ptr<Connection>& connection) {
  LineReader reader(connection->fd);
  std::string line;
  while (reader.read_line(line)) {
    if (line.empty()) continue;
    handle_line(connection, line);
  }
  // Reader is done (EOF, error, or drain nudge): finish in-flight batches
  // so their responses go out, then close.
  std::vector<std::pair<std::shared_ptr<std::atomic<bool>>, std::thread>>
      batches;
  {
    util::MutexLock lock(connection->batch_mutex);
    batches.swap(connection->batches);
  }
  for (auto& [done, thread] : batches) {
    if (thread.joinable()) thread.join();
  }
  // Close under conn_mutex_ so begin_drain() can never shutdown() an fd
  // number the OS has already reused.
  util::MutexLock lock(conn_mutex_);
  ::close(connection->fd);
  connection->done.store(true, std::memory_order_release);
}

void Server::handle_line(const std::shared_ptr<Connection>& connection,
                         const std::string& line) {
  util::Timer verb_timer;
  auto observe = [&](const VerbMetrics& vm) {
    if (vm.requests != nullptr) vm.requests->add();
    if (vm.seconds != nullptr) vm.seconds->observe(verb_timer.elapsed_seconds());
  };
  std::string parse_error;
  const auto message = Json::try_parse(line, &parse_error);
  auto respond = [&](const Json& response) {
    util::MutexLock lock(connection->write_mutex);
    send_json(connection->fd, response);
  };
  if (!message.has_value()) {
    respond(make_error(0, "bad JSON: " + parse_error));
    observe(other_verb_metrics_);
    return;
  }
  const std::uint64_t id = message_id(*message);
  if (!message->is_object()) {
    respond(make_error(id, "request must be a JSON object"));
    observe(other_verb_metrics_);
    return;
  }
  std::string verb;
  if (const Json* v = message->find("verb"); v != nullptr && v->is_string()) {
    verb = v->as_string();
  }
  // Latency is observed on EVERY exit path below (the guard fires on
  // return); for "run" it measures admission + dispatch — run wall time
  // has its own histogram (moela_run_seconds).
  const auto vm_it = verb_metrics_.find(verb);
  const VerbMetrics& vm =
      vm_it == verb_metrics_.end() ? other_verb_metrics_ : vm_it->second;
  struct LatencyGuard {
    decltype(observe)& fire;
    const VerbMetrics& vm;
    ~LatencyGuard() { fire(vm); }
  } latency_guard{observe, vm};

  if (verb == "ping") {
    Json response = make_ok(id);
    response.set("server", "moela_serve")
        .set("protocol", kProtocolVersion)
        .set("jobs", executor_->jobs());
    respond(response);
  } else if (verb == "list_algorithms") {
    Json algorithms = Json::array();
    for (const auto& name : api::registry().names()) {
      Json entry = Json::object();
      Json knobs = Json::array();
      for (const auto& knob : api::registry().knob_keys(name)) {
        knobs.append(knob);
      }
      entry.set("name", name).set("knobs", std::move(knobs));
      algorithms.append(std::move(entry));
    }
    Json response = make_ok(id);
    response.set("algorithms", std::move(algorithms));
    respond(response);
  } else if (verb == "list_problems") {
    Json problems = Json::array();
    for (const auto& name : api::problem_names()) problems.append(name);
    Json response = make_ok(id);
    response.set("problems", std::move(problems));
    respond(response);
  } else if (verb == "cache_stats") {
    Json cache = cache_counters_json(config_.use_cache, &cache_);
    if (config_.use_cache) {
      cache.set("dir", cache_.disk_dir())
          .set("max_disk_bytes",
               static_cast<std::uint64_t>(cache_.max_disk_bytes()));
    }
    Json response = make_ok(id);
    response.set("cache", std::move(cache))
        .set("runs_handled", runs_handled());
    respond(response);
  } else if (verb == "health") {
    // One-line load snapshot for shard placement (api::ShardedExecutor
    // probes this before partitioning a batch): capacity, current load,
    // scheduler backlog (total and per class), lifetime counters, and
    // whether new runs would be accepted.
    Json cache = cache_counters_json(config_.use_cache, &cache_);
    Json response = make_ok(id);
    response.set("server", "moela_serve")
        .set("protocol", kProtocolVersion)
        .set("version", kServerVersion)
        .set("uptime_seconds", uptime_seconds())
        .set("jobs", static_cast<std::uint64_t>(executor_->jobs()))
        .set("inflight", static_cast<std::uint64_t>(inflight_total()))
        .set("max_inflight",
             static_cast<std::uint64_t>(config_.max_inflight))
        .set("queued", static_cast<std::uint64_t>(scheduler_->queued_total()))
        .set("running",
             static_cast<std::uint64_t>(scheduler_->running_total()))
        .set("max_queued", static_cast<std::uint64_t>(config_.max_queued))
        .set("classes", sched_classes_json())
        .set("runs_handled", runs_handled())
        .set("runs_cancelled", runs_cancelled())
        .set("runs_resumed", runs_resumed_counter_->value())
        .set("snapshots_written", snapshots_written_counter_->value())
        .set("accepting", !shutdown_requested())
        .set("cache", std::move(cache));
    respond(response);
  } else if (verb == "metrics") {
    // The registry's JSON snapshot, plus the same identity/uptime header
    // as health so one verb suffices for a scraper.
    Json response = make_ok(id);
    response.set("server", "moela_serve")
        .set("protocol", kProtocolVersion)
        .set("version", kServerVersion)
        .set("uptime_seconds", uptime_seconds())
        .set("metrics", metrics_.snapshot_json());
    respond(response);
  } else if (verb == "run") {
    handle_run(connection, id, *message);
  } else if (verb == "cancel") {
    handle_cancel(connection, id, *message);
  } else if (verb == "shutdown") {
    Json response = make_ok(id);
    response.set("shutting_down", true);
    respond(response);
    util::log_info() << "moela_serve: shutdown requested by client";
    request_shutdown();
  } else {
    respond(make_error(id, verb.empty() ? "missing verb"
                                        : "unknown verb '" + verb + "'"));
  }
}

Json Server::sched_classes_json() const {
  Json classes = Json::object();
  for (std::size_t c = 0; c < sched::kNumClasses; ++c) {
    const auto priority = static_cast<sched::Priority>(c);
    const sched::ClassCounters counters = scheduler_->counters(priority);
    Json entry = Json::object();
    entry.set("queued", counters.queued)
        .set("running", counters.running)
        .set("completed", counters.completed)
        .set("shed", counters.shed);
    classes.set(sched::priority_name(priority), std::move(entry));
  }
  return classes;
}

void Server::handle_run(const std::shared_ptr<Connection>& connection,
                        std::uint64_t id, const Json& message) {
  auto respond_error = [&](const std::string& error) {
    util::MutexLock lock(connection->write_mutex);
    send_json(connection->fd, make_error(id, error));
  };
  if (shutdown_requested()) {
    respond_error("server is shutting down");
    return;
  }
  const Json* requests_json = message.find("requests");
  if (requests_json == nullptr || !requests_json->is_array() ||
      requests_json->as_array().empty()) {
    respond_error("run: 'requests' must be a non-empty array");
    return;
  }
  std::vector<api::RunRequest> requests;
  requests.reserve(requests_json->as_array().size());
  try {
    for (const auto& entry : requests_json->as_array()) {
      requests.push_back(api::request_from_json(entry));
    }
  } catch (const util::JsonError& e) {
    respond_error(std::string("run: ") + e.what());
    return;
  }
  // Validate algorithm keys up front: one typo should fail the batch with
  // a clear error, not surface as N identical per-report errors.
  for (const auto& request : requests) {
    if (!api::registry().contains(request.algorithm)) {
      respond_error("run: unknown algorithm '" + request.algorithm + "'");
      return;
    }
  }
  bool stream_progress = false;
  if (const Json* p = message.find("progress");
      p != nullptr && p->is_bool()) {
    stream_progress = p->as_bool();
  }
  // The batch's scheduling class. Optional and additive on the wire:
  // absent means normal, a typo is an error (misclassifying a request is
  // worse than rejecting it).
  sched::Priority priority = sched::Priority::kNormal;
  if (const Json* p = message.find("priority")) {
    if (!p->is_string() || !sched::parse_priority(p->as_string(), priority)) {
      respond_error("run: bad priority '" +
                    (p->is_string() ? p->as_string()
                                    : std::string("<non-string>")) +
                    "' (expected interactive | normal | batch)");
      return;
    }
  }

  // The per-connection in-flight bound: reserve slots or reject.
  const std::size_t batch_size = requests.size();
  std::size_t inflight = connection->inflight.load(std::memory_order_relaxed);
  for (;;) {
    if (inflight + batch_size > config_.max_inflight) {
      respond_error("run: in-flight limit exceeded (" +
                    util::dec(inflight) + " queued + " +
                    util::dec(batch_size) + " requested > " +
                    util::dec(config_.max_inflight) + ")");
      return;
    }
    if (connection->inflight.compare_exchange_weak(
            inflight, inflight + batch_size, std::memory_order_relaxed)) {
      break;
    }
  }
  inflight_total_.fetch_add(batch_size, std::memory_order_relaxed);

  // Labels ride with the progress callback (owned: the callback outlives
  // this frame inside the control).
  auto labels = std::make_shared<std::vector<std::string>>();
  labels->reserve(batch_size);
  for (const auto& request : requests) {
    labels->push_back(request.label_or_default());
  }

  util::MutexLock lock(connection->batch_mutex);
  // Reap finished collector threads so a long-lived connection does not
  // accumulate them.
  for (auto it = connection->batches.begin();
       it != connection->batches.end();) {
    if (it->first->load(std::memory_order_acquire) && it->second.joinable()) {
      it->second.join();
      it = connection->batches.erase(it);
    } else {
      ++it;
    }
  }
  // Register the batch's control under its id BEFORE the scheduler can
  // start (or a collector thread exists): a client may fire the cancel
  // verb immediately after the run line, and the reader must find the
  // control no matter how the threads interleave.
  auto control = std::make_shared<api::RunControl>();
  // The batch's trace id (every request in a batch carries the same one)
  // and admission clock, echoed on every streamed event: "trace" lets an
  // operator grep a sweep across the fleet, "elapsed_ms" (server-side,
  // monotonic) lets a client spot a stalled run without local bookkeeping.
  const std::string trace = requests.front().trace_id;
  auto admitted = std::make_shared<util::Timer>();
  // The progress callback likewise goes in BEFORE the first run can
  // start, or early events would be lost.
  control->on_progress([connection, id, labels, stream_progress, trace,
                        admitted](const api::RunProgress& progress) {
    // Snapshot-bearing events always go out: a checkpointing client that
    // did not ask for progress streaming still needs the resume payload.
    if (!progress.finished && !stream_progress &&
        progress.snapshot == nullptr) {
      return;
    }
    Json event = Json::object();
    event.set("id", id)
        .set("event", progress.finished ? "finished" : "progress")
        .set("index", progress.batch_index)
        .set("label", progress.batch_index < labels->size()
                          ? (*labels)[progress.batch_index]
                          : std::string())
        .set("algorithm", progress.algorithm)
        .set("evaluations", progress.evaluations)
        .set("max_evaluations", progress.max_evaluations)
        .set("seconds", progress.seconds)
        .set("elapsed_ms", admitted->elapsed_ms());
    if (!trace.empty()) event.set("trace", trace);
    if (progress.snapshot != nullptr) {
      event.set("snapshot", api::snapshot_to_json(*progress.snapshot));
    }
    if (progress.finished) {
      event.set("completed", progress.completed)
          .set("total", progress.batch_size)
          .set("cache_hit", progress.cache_hit);
    }
    util::MutexLock write_lock(connection->write_mutex);
    send_json(connection->fd, event);
  });
  {
    util::MutexLock run_lock(connection->run_mutex);
    connection->active_runs.emplace(id, control);
  }
  {
    util::MutexLock control_lock(control_mutex_);
    active_controls_.insert(control.get());
    if (hard_stop_.load(std::memory_order_relaxed)) control->request_stop();
  }

  sched::Scheduler::Admission admission = scheduler_->submit(
      std::move(requests), priority, connection->lane, control.get());
  if (!admission.admitted) {
    // Shed: unwind every registration this frame made (no slot may leak),
    // then answer with the structured overload facts so the client can
    // back off instead of guessing.
    {
      util::MutexLock run_lock(connection->run_mutex);
      auto [begin, end] = connection->active_runs.equal_range(id);
      for (auto it = begin; it != end; ++it) {
        if (it->second == control) {
          connection->active_runs.erase(it);
          break;
        }
      }
    }
    {
      util::MutexLock control_lock(control_mutex_);
      active_controls_.erase(control.get());
    }
    connection->inflight.fetch_sub(batch_size, std::memory_order_relaxed);
    inflight_total_.fetch_sub(batch_size, std::memory_order_relaxed);
    Json error = make_error(
        id, "overloaded: " + util::dec(admission.queue_depth) +
                " run(s) queued + " + util::dec(batch_size) +
                " requested > max_queued " + util::dec(config_.max_queued) +
                "; retry after " + util::dec(admission.retry_after_ms) +
                "ms");
    error.set("overloaded", true)
        .set("queued", static_cast<std::uint64_t>(admission.queue_depth))
        .set("max_queued", static_cast<std::uint64_t>(config_.max_queued))
        .set("retry_after_ms", admission.retry_after_ms);
    util::MutexLock write_lock(connection->write_mutex);
    send_json(connection->fd, error);
    return;
  }

  auto done = std::make_shared<std::atomic<bool>>(false);
  std::thread collector([this, connection, id,
                         futures = std::move(admission.futures), priority,
                         control, done]() mutable {
    run_batch(connection, id, std::move(futures), priority,
              std::move(control));
    done->store(true, std::memory_order_release);
  });
  connection->batches.emplace_back(std::move(done), std::move(collector));
}

void Server::handle_cancel(const std::shared_ptr<Connection>& connection,
                           std::uint64_t id, const Json& message) {
  auto respond = [&](const Json& response) {
    util::MutexLock lock(connection->write_mutex);
    send_json(connection->fd, response);
  };
  const Json* target_json = message.find("target");
  std::uint64_t target = 0;
  if (target_json != nullptr) {
    try {
      target = target_json->as_u64();
    } catch (const util::JsonError&) {
      target_json = nullptr;
    }
  }
  if (target_json == nullptr) {
    respond(make_error(id, "cancel: 'target' must be a run id"));
    return;
  }
  // Flip every in-flight batch submitted under the target id ON THIS
  // connection (ids are per-connection). An unknown or already-finished
  // target is a benign race, not an error: cancel is idempotent and
  // answers "cancelled": false so the client can tell a no-op from a hit.
  bool cancelled = false;
  {
    util::MutexLock lock(connection->run_mutex);
    auto [begin, end] = connection->active_runs.equal_range(target);
    for (auto it = begin; it != end; ++it) {
      it->second->request_stop();
      cancelled = true;
    }
  }
  Json response = make_ok(id);
  response.set("cancelled", cancelled);
  respond(response);
}

void Server::run_batch(std::shared_ptr<Connection> connection,
                       std::uint64_t id,
                       std::vector<std::future<api::RunReport>> futures,
                       sched::Priority priority,
                       std::shared_ptr<api::RunControl> control_ptr) {
  const std::size_t batch_size = futures.size();
  const std::string priority_name = sched::priority_name(priority);
  // The response is make_ok(id) plus "reports", streamed report by report
  // into its line as each run finishes (keys stay in dump()'s order).
  std::string line =
      "{\"id\":" + util::dec(id) + ",\"ok\":true,\"reports\":[";
  std::uint64_t cancelled_runs = 0;
  for (std::size_t i = 0; i < batch_size; ++i) {
    if (i > 0) line += ',';
    const std::size_t start = line.size();
    try {
      api::RunReport report = futures[i].get();
      if (report.provenance.cancelled) ++cancelled_runs;
      // Echo the class that carried the run — overwriting whatever a
      // cache hit replayed, so the echo always describes THIS request.
      report.provenance.priority = priority_name;
      api::append_report_json(line, report);
    } catch (const std::exception& e) {
      line.resize(start);  // drop a partly written report
      line += "{\"error\":";
      util::append_json_string(line, e.what());
      line += '}';
    }
  }
  line += "]}";

  // The batch has answered (reports collected): retire it from the
  // cancel registry — a later cancel for this id is the benign no-op.
  {
    util::MutexLock lock(connection->run_mutex);
    auto [begin, end] = connection->active_runs.equal_range(id);
    for (auto it = begin; it != end; ++it) {
      if (it->second == control_ptr) {
        connection->active_runs.erase(it);
        break;
      }
    }
  }
  {
    util::MutexLock lock(control_mutex_);
    active_controls_.erase(control_ptr.get());
  }

  runs_handled_.fetch_add(batch_size, std::memory_order_relaxed);
  if (cancelled_runs > 0) {
    runs_cancelled_.fetch_add(cancelled_runs, std::memory_order_relaxed);
  }
  // Release the in-flight slots BEFORE the final response goes out, so a
  // client that reads the response and immediately asks `health` never
  // observes its own finished batch as load.
  connection->inflight.fetch_sub(batch_size, std::memory_order_relaxed);
  inflight_total_.fetch_sub(batch_size, std::memory_order_relaxed);
  util::MutexLock lock(connection->write_mutex);
  send_line(connection->fd, std::move(line));
}

}  // namespace moela::serve
