#include "api/result_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include <unistd.h>

#include "api/serde.hpp"
#include "util/json.hpp"
#include "util/numeric.hpp"

namespace moela::api {
namespace {

namespace fs = std::filesystem;

/// Reads one disk entry. A missing or unparsable file, an embedded key
/// other than `key` (a hash collision) or a malformed report is a miss.
std::optional<RunReport> read_entry(const fs::path& path,
                                    const std::string& key) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto entry = util::Json::try_parse(text);
  if (!entry) return std::nullopt;
  const util::Json* stored_key = entry->find("key");
  const util::Json* report = entry->find("report");
  if (stored_key == nullptr || !stored_key->is_string() ||
      stored_key->as_string() != key || report == nullptr ||
      !report->is_object()) {
    return std::nullopt;
  }
  try {
    RunReport out = report_from_json(*report);
    out.provenance.cache_key = key;
    return out;
  } catch (const util::JsonError&) {
    return std::nullopt;
  }
}

}  // namespace

std::string ResultCache::default_disk_dir() {
  if (const char* dir = std::getenv("MOELA_CACHE_DIR");
      dir != nullptr && *dir != '\0') {
    return dir;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME");
      xdg != nullptr && *xdg != '\0') {
    return std::string(xdg) + "/moela";
  }
  if (const char* home = std::getenv("HOME");
      home != nullptr && *home != '\0') {
    return std::string(home) + "/.cache/moela";
  }
  return ".moela-cache";
}

std::uintmax_t ResultCache::default_max_disk_bytes() {
  if (const char* env = std::getenv("MOELA_CACHE_MAX_BYTES");
      env != nullptr && *env != '\0') {
    // "0" is a valid setting: it disables the cap entirely.
    std::uint64_t parsed = 0;
    if (util::parse_u64(env, parsed)) return parsed;
  }
  return 1ull << 30;  // 1 GiB
}

std::string ResultCache::hash_key(const std::string& key) {
  // FNV-1a 64-bit.
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

std::optional<RunReport> ResultCache::lookup(const std::string& key,
                                             bool need_designs) {
  if (key.empty()) return std::nullopt;
  {
    util::MutexLock lock(mutex_);
    auto it = memory_.find(key);
    // The designs check also applies here: a disk entry stored without
    // designs gets promoted into the memory tier below, and must not
    // satisfy a need_designs lookup from memory either.
    if (it != memory_.end() &&
        (!need_designs || !it->second.final_designs.empty())) {
      ++stats_.memory_hits;
      if (metric_memory_hits_ != nullptr) metric_memory_hits_->add();
      RunReport hit = it->second;
      hit.provenance.cache_hit = true;
      return hit;
    }
  }
  if (!dir_.empty()) {
    const fs::path path = fs::path(dir_) / (hash_key(key) + ".moela");
    auto report = read_entry(path, key);
    if (report.has_value() &&
        (!need_designs || !report->final_designs.empty())) {
      report->provenance.cache_hit = true;
      // Refresh the entry's file time so the size cap evicts
      // least-recently-USED, not least-recently-written.
      std::error_code ec;
      fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
      util::MutexLock lock(mutex_);
      ++stats_.disk_hits;
      if (metric_disk_hits_ != nullptr) metric_disk_hits_->add();
      memory_.emplace(key, *report);
      return report;
    }
  }
  util::MutexLock lock(mutex_);
  ++stats_.misses;
  if (metric_misses_ != nullptr) metric_misses_->add();
  return std::nullopt;
}

void ResultCache::store(const std::string& key, const RunReport& report) {
  if (key.empty() || report.provenance.cancelled) return;
  {
    util::MutexLock lock(mutex_);
    memory_.insert_or_assign(key, report);
    ++stats_.stores;
    if (metric_stores_ != nullptr) metric_stores_->add();
  }
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return;  // cache is best-effort: an unwritable dir is not an error
  const std::string stem = hash_key(key);
  const fs::path final_path = fs::path(dir_) / (stem + ".moela");
  // Unique temp per process and per write so concurrent writers (threads
  // storing the same key, or separate processes) never interleave; rename()
  // makes the publish atomic on POSIX.
  static std::atomic<std::uint64_t> write_counter{0};
  const fs::path temp_path =
      fs::path(dir_) /
      (stem + ".tmp." + util::dec(::getpid()) + "." +
       util::dec(write_counter.fetch_add(1, std::memory_order_relaxed)));
  // One JSON line: the key (so a hash collision reads as a miss) and the
  // report exactly as the daemon sends it.
  std::string text = "{\"key\":";
  util::append_json_string(text, key);
  text += ",\"report\":";
  append_report_json(text, report);
  text += "}\n";
  {
    std::ofstream out(temp_path, std::ios::binary);
    if (!out) return;
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out) {
      out.close();
      fs::remove(temp_path, ec);
      return;
    }
  }
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    fs::remove(temp_path, ec);
    return;
  }
  if (max_disk_bytes() > 0) enforce_disk_cap(stem + ".moela");
}

void ResultCache::enforce_disk_cap(const std::string& keep) {
  // One cap snapshot for the whole pass, so a concurrent
  // set_max_disk_bytes() cannot make the two threshold checks disagree.
  const std::uintmax_t cap = max_disk_bytes();
  std::error_code ec;
  struct Entry {
    fs::path path;
    fs::file_time_type used;
    std::uintmax_t size;
  };
  std::vector<Entry> entries;
  std::uintmax_t total = 0;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& path = it->path();
    if (path.extension() != ".moela") continue;  // temp files age out fast
    Entry entry{path, it->last_write_time(ec), it->file_size(ec)};
    if (ec) return;  // racing another process; try again next store
    total += entry.size;
    entries.push_back(std::move(entry));
  }
  if (total <= cap) return;
  // Oldest-used first; the just-written entry sorts last so it only goes
  // when it alone exceeds the cap.
  std::sort(entries.begin(), entries.end(), [&](const Entry& a,
                                                const Entry& b) {
    const bool a_keep = a.path.filename() == keep;
    const bool b_keep = b.path.filename() == keep;
    if (a_keep != b_keep) return b_keep;
    return a.used < b.used;
  });
  std::size_t evicted = 0;
  for (const auto& entry : entries) {
    if (total <= cap) break;
    if (fs::remove(entry.path, ec) && !ec) {
      total -= entry.size;
      ++evicted;
    }
  }
  if (evicted > 0) {
    util::MutexLock lock(mutex_);
    stats_.evictions += evicted;
    if (metric_evictions_ != nullptr) metric_evictions_->add(evicted);
  }
}

void ResultCache::set_metrics(util::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_memory_hits_ = nullptr;
    metric_disk_hits_ = nullptr;
    metric_misses_ = nullptr;
    metric_stores_ = nullptr;
    metric_evictions_ = nullptr;
    return;
  }
  const std::string lookups = "moela_cache_lookups_total";
  const std::string lookups_help = "Result-cache lookups by outcome";
  metric_memory_hits_ =
      &metrics->counter(lookups, lookups_help, {{"result", "hit_memory"}});
  metric_disk_hits_ =
      &metrics->counter(lookups, lookups_help, {{"result", "hit_disk"}});
  metric_misses_ =
      &metrics->counter(lookups, lookups_help, {{"result", "miss"}});
  metric_stores_ = &metrics->counter("moela_cache_stores_total",
                                     "Reports stored into the result cache");
  metric_evictions_ =
      &metrics->counter("moela_cache_evictions_total",
                        "Disk-tier entry files evicted by the size cap");
}

ResultCache::Stats ResultCache::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace moela::api
