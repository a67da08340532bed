// Batched execution layer, part 2: the content-keyed result cache.
//
// Key = RunRequest::cache_key() (problem instance + algorithm + canonical
// RunOptions incl. knobs and seed); value = the full RunReport. Two tiers:
//
//   * memory — always on; stores the report verbatim (designs included),
//     serves repeats within one process (e.g. the same (app, m) cell used
//     by several tables).
//   * disk   — optional; one file per key under a cache directory,
//     `<hash>.moela`, holding one JSON line {"key": <key>, "report": <the
//     report as api::append_report_json writes it for the wire>}. Doubles
//     are hexfloat strings, so reports round-trip bit-exactly. Serves
//     repeats ACROSS processes (a re-invoked CLI or bench). An entry that
//     does not parse, or whose key differs, reads as a miss.
//
// Designs are type-erased (AnyDesign); the report encoding covers the
// library's design types — real vectors (ZDT/DTLZ/continuous), binary
// vectors (knapsack), and NocDesign (via noc/io). Reports whose design type
// it does not cover are stored without designs; a lookup with need_designs
// = true then rejects such entries and the caller recomputes.
//
// Thread-safe: lookup/store may be called concurrently from Executor
// workers. Cross-process disk writes are atomic (write-temp + rename).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "api/optimizer.hpp"
#include "util/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace moela::api {

class ResultCache {
 public:
  /// Memory-only cache.
  ResultCache() = default;
  /// Memory + disk under `disk_dir` (created on first store; "" = memory
  /// only).
  explicit ResultCache(std::string disk_dir) : dir_(std::move(disk_dir)) {}

  /// The conventional disk location: $MOELA_CACHE_DIR if set, else
  /// $XDG_CACHE_HOME/moela, else $HOME/.cache/moela, else ./.moela-cache.
  static std::string default_disk_dir();

  /// The disk-tier size cap from $MOELA_CACHE_MAX_BYTES (bytes; "0"
  /// disables the cap; unset/malformed = the built-in 1 GiB default).
  static std::uintmax_t default_max_disk_bytes();

  /// Caps the total size of the disk tier. After every store, entry files
  /// are evicted least-recently-USED first (a lookup hit refreshes an
  /// entry's file time) until the tier fits. 0 disables the cap. The
  /// constructor seeds this from default_max_disk_bytes(). Atomic so a cap
  /// change may race concurrent store() calls safely: the cap is a fleet
  /// tuning knob, not part of any report, so relaxed ordering suffices —
  /// an in-flight store applies either the old or the new cap, and the
  /// next store applies the new one.
  void set_max_disk_bytes(std::uintmax_t bytes) {
    max_disk_bytes_.store(bytes, std::memory_order_relaxed);
  }
  std::uintmax_t max_disk_bytes() const {
    return max_disk_bytes_.load(std::memory_order_relaxed);
  }

  /// Returns the cached report for `key`, or nullopt. `need_designs`
  /// rejects disk entries stored without designs (see file comment).
  /// A hit is returned with provenance.cache_hit = true.
  std::optional<RunReport> lookup(const std::string& key,
                                  bool need_designs = false);

  /// Stores `report` under `key` in both tiers. Ignores empty keys and
  /// cancelled (partial) reports.
  void store(const std::string& key, const RunReport& report);

  struct Stats {
    std::size_t memory_hits = 0;
    std::size_t disk_hits = 0;
    std::size_t misses = 0;
    std::size_t stores = 0;
    /// Disk entries removed by the size cap (lifetime of this instance).
    std::size_t evictions = 0;
  };
  Stats stats() const;

  /// Attaches a telemetry registry (not owned; must outlive this cache).
  /// Lookup/store/eviction outcomes then mirror into labeled counters
  /// (moela_cache_*); handles resolve once here so the hot path stays an
  /// atomic add. Call before concurrent use.
  void set_metrics(util::MetricsRegistry* metrics);

  const std::string& disk_dir() const { return dir_; }

  /// FNV-1a 64-bit hex digest of `key` — the on-disk file stem.
  static std::string hash_key(const std::string& key);

 private:
  /// Removes least-recently-used entry files until the tier fits the cap,
  /// sparing the just-written `keep` (unless it alone busts the cap).
  void enforce_disk_cap(const std::string& keep);

  mutable util::Mutex mutex_;
  std::map<std::string, RunReport> memory_ MOELA_GUARDED_BY(mutex_);
  /// Immutable after construction — readable lock-free.
  std::string dir_;
  /// Lock-free by design (see set_max_disk_bytes above), so deliberately
  /// not MOELA_GUARDED_BY(mutex_).
  std::atomic<std::uintmax_t> max_disk_bytes_{default_max_disk_bytes()};
  Stats stats_ MOELA_GUARDED_BY(mutex_);
  /// Pre-resolved telemetry handles; null until set_metrics(), which the
  /// contract requires to run before concurrent use — after that the
  /// pointers are read-only and the Counters they point at are themselves
  /// relaxed atomics, so no capability is needed here.
  util::Counter* metric_memory_hits_ = nullptr;
  util::Counter* metric_disk_hits_ = nullptr;
  util::Counter* metric_misses_ = nullptr;
  util::Counter* metric_stores_ = nullptr;
  util::Counter* metric_evictions_ = nullptr;
};

}  // namespace moela::api
