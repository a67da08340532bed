// Tests for the batched execution layer (src/api/): RunRequest cache keys
// and replicate expansion, the thread-pooled Executor (determinism under
// concurrency, progress, cancellation), and the two-tier ResultCache
// (memory + disk, bit-exact round-trips, the disk entry format).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/executor.hpp"
#include "api/problems.hpp"
#include "api/registry.hpp"
#include "api/request.hpp"
#include "api/result_cache.hpp"
#include "api/run_log.hpp"
#include "api/serde.hpp"
#include "noc/design.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace moela::api {
namespace {

RunRequest zdt1_request(const std::string& algorithm,
                        std::uint64_t seed = 5) {
  RunRequest request;
  request.problem = "zdt1";
  request.problem_options.num_variables = 10;
  request.algorithm = algorithm;
  request.options.max_evaluations = 600;
  request.options.snapshot_interval = 200;
  request.options.seed = seed;
  request.options.population_size = 12;
  request.options.n_local = 3;
  request.options.knobs.set("moela.forest.trees", 4)
      .set("moela.forest.max_depth", 5)
      .set("moela.ls.max_evals", 30);
  return request;
}

void expect_equal_reports(const RunReport& a, const RunReport& b,
                          const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.final_front, b.final_front) << context;
  EXPECT_EQ(a.final_objectives, b.final_objectives) << context;
  EXPECT_EQ(a.evaluations, b.evaluations) << context;
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size()) << context;
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(a.snapshots[i].evaluations, b.snapshots[i].evaluations)
        << context;
    EXPECT_EQ(a.snapshots[i].front, b.snapshots[i].front) << context;
  }
}

// --- RunRequest -----------------------------------------------------------

TEST(RunRequest, CacheKeyIsCanonical) {
  RunRequest a = zdt1_request("moela");
  RunRequest b = zdt1_request("moela");
  EXPECT_FALSE(a.cache_key().empty());
  EXPECT_EQ(a.cache_key(), b.cache_key());

  // Knob insertion order must not matter (the bag is a sorted map).
  RunRequest c = zdt1_request("moela");
  c.options.knobs = KnobBag();
  c.options.knobs.set("moela.ls.max_evals", 30)
      .set("moela.forest.max_depth", 5)
      .set("moela.forest.trees", 4);
  EXPECT_EQ(a.cache_key(), c.cache_key());
}

TEST(RunRequest, CacheKeySeparatesDifferingRequests) {
  const RunRequest base = zdt1_request("moela");
  RunRequest other = base;
  other.options.seed = 6;
  EXPECT_NE(base.cache_key(), other.cache_key());
  other = base;
  other.algorithm = "nsga2";
  EXPECT_NE(base.cache_key(), other.cache_key());
  other = base;
  other.options.knobs.set("moela.delta", 0.5);
  EXPECT_NE(base.cache_key(), other.cache_key());
  other = base;
  other.options.max_evaluations = 601;
  EXPECT_NE(base.cache_key(), other.cache_key());
  other = base;
  other.problem_options.num_variables = 12;
  EXPECT_NE(base.cache_key(), other.cache_key());
}

TEST(RunRequest, BoundOnlyProblemIsUncacheable) {
  RunRequest request;
  request.bound_problem = make_problem("zdt1");
  request.algorithm = "nsga2";
  EXPECT_TRUE(request.cache_key().empty());
  EXPECT_EQ(request.label_or_default(), "<custom>:nsga2:1");
}

TEST(RunRequest, ExpandReplicatesDerivesSeeds) {
  const RunRequest base = zdt1_request("nsga2", 7);
  const auto replicas = expand_replicates(base, 3);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0].options.seed, 7u);
  EXPECT_EQ(replicas[1].options.seed, 8u);
  EXPECT_EQ(replicas[2].options.seed, 9u);
  for (const auto& r : replicas) {
    EXPECT_EQ(r.algorithm, base.algorithm);
    EXPECT_EQ(r.problem, base.problem);
    // The problem instance seed stays fixed: replicates vary the search.
    EXPECT_EQ(r.problem_options.seed, base.problem_options.seed);
  }
}

// --- Executor: determinism under concurrency ------------------------------

TEST(Executor, ParallelRunsBitIdenticalToSerial) {
  std::vector<RunRequest> requests;
  for (const auto& algorithm : {"moela", "nsga2"}) {
    for (const auto& request : expand_replicates(zdt1_request(algorithm), 2)) {
      requests.push_back(request);
    }
  }

  Executor serial({.jobs = 1});
  Executor parallel({.jobs = 4});
  EXPECT_EQ(serial.jobs(), 1u);
  EXPECT_EQ(parallel.jobs(), 4u);
  const auto serial_reports = serial.run_all(requests);
  const auto parallel_reports = parallel.run_all(requests);

  ASSERT_EQ(serial_reports.size(), requests.size());
  ASSERT_EQ(parallel_reports.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_equal_reports(serial_reports[i], parallel_reports[i],
                         requests[i].label_or_default());
    EXPECT_FALSE(parallel_reports[i].final_front.empty());
    EXPECT_FALSE(parallel_reports[i].provenance.cache_hit);
  }
}

TEST(Executor, FillsProvenance) {
  Executor executor({.jobs = 2});
  const RunRequest request = zdt1_request("nsga2", 11);
  const auto reports = executor.run_all({request});
  ASSERT_EQ(reports.size(), 1u);
  const RunProvenance& p = reports[0].provenance;
  EXPECT_EQ(p.problem, "zdt1");
  EXPECT_EQ(p.algorithm_key, "nsga2");
  EXPECT_EQ(p.seed, 11u);
  EXPECT_EQ(p.cache_key, request.cache_key());
  EXPECT_FALSE(p.cache_hit);
  EXPECT_FALSE(p.cancelled);
  EXPECT_EQ(p.knobs, request.options.knobs.values());
}

TEST(Executor, BadRequestSurfacesFromTheFuture) {
  Executor executor({.jobs = 2});
  RunRequest bad = zdt1_request("nsga2");
  bad.problem = "no-such-problem";
  auto futures = executor.submit({bad});
  ASSERT_EQ(futures.size(), 1u);
  EXPECT_THROW(futures[0].get(), std::out_of_range);
}

// --- Executor: progress + cancellation ------------------------------------

TEST(Executor, ProgressEventsCoverTheBatch) {
  std::vector<RunRequest> requests{zdt1_request("nsga2", 1),
                                   zdt1_request("nsga2", 2),
                                   zdt1_request("nsga2", 3)};
  util::Mutex mutex;
  std::vector<RunProgress> finished;
  std::size_t cadence_events = 0;
  RunControl control;
  control.on_progress([&](const RunProgress& progress) {
    util::MutexLock lock(mutex);
    if (progress.finished) {
      finished.push_back(progress);
    } else {
      ++cadence_events;
      EXPECT_GT(progress.evaluations, 0u);
      EXPECT_EQ(progress.max_evaluations, 600u);
    }
  });

  Executor executor({.jobs = 2});
  executor.run_all(requests, &control);

  ASSERT_EQ(finished.size(), requests.size());
  EXPECT_GT(cadence_events, 0u);  // snapshot_interval = 200 < 600 evals
  std::set<std::size_t> completed, indices;
  for (const auto& progress : finished) {
    completed.insert(progress.completed);
    indices.insert(progress.batch_index);
    EXPECT_EQ(progress.batch_size, requests.size());
    EXPECT_TRUE(progress.finished);
  }
  // `completed` counts 1..N, each exactly once; every index reported.
  EXPECT_EQ(completed, (std::set<std::size_t>{1, 2, 3}));
  EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2}));
}

TEST(Executor, StopBeforeStartYieldsCancelledReports) {
  RunControl control;
  control.request_stop();
  Executor executor({.jobs = 2});
  const auto reports = executor.run_all({zdt1_request("nsga2")}, &control);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].provenance.cancelled);
  EXPECT_EQ(reports[0].evaluations, 0u);
  EXPECT_TRUE(reports[0].final_front.empty());
}

TEST(Executor, MidRunStopEndsEarlyWithPartialReport) {
  RunRequest request = zdt1_request("nsga2");
  request.options.max_evaluations = 4000000;  // would take far too long
  request.options.snapshot_interval = 200;

  RunControl control;
  control.on_progress([&control](const RunProgress& progress) {
    if (!progress.finished && progress.evaluations >= 200) {
      control.request_stop();  // cancel at the first cadence event
    }
  });
  Executor executor({.jobs = 1});
  const auto reports = executor.run_all({request}, &control);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].provenance.cancelled);
  EXPECT_GE(reports[0].evaluations, 200u);
  EXPECT_LT(reports[0].evaluations, request.options.max_evaluations);
  // A cancelled run still reports the work done so far.
  EXPECT_FALSE(reports[0].final_front.empty());
}

// --- ResultCache ----------------------------------------------------------

TEST(ResultCache, MemoryTierServesRepeatsWithEqualReports) {
  ResultCache cache;  // memory only
  Executor executor({.jobs = 2, .cache = &cache});
  const RunRequest request = zdt1_request("moela");

  const auto first = executor.run_all({request});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_FALSE(first[0].provenance.cache_hit);

  const auto second = executor.run_all({request});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].provenance.cache_hit);
  expect_equal_reports(first[0], second[0], "memory cache hit");
  EXPECT_EQ(first[0].final_designs.size(), second[0].final_designs.size());
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(ResultCache, DiskTierSurvivesAcrossCacheInstances) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-disk-cache";
  std::filesystem::remove_all(dir);

  const RunRequest request = zdt1_request("nsga2");
  RunReport original;
  {
    ResultCache cache(dir.string());
    Executor executor({.jobs = 1, .cache = &cache});
    original = executor.run_all({request})[0];
    EXPECT_FALSE(original.provenance.cache_hit);
  }

  // A fresh cache (fresh process, in effect) must hit from disk,
  // bit-exactly — hexfloat serialization loses nothing.
  ResultCache cache(dir.string());
  Executor executor({.jobs = 1, .cache = &cache});
  const auto cached = executor.run_all({request})[0];
  EXPECT_TRUE(cached.provenance.cache_hit);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  expect_equal_reports(original, cached, "disk cache hit");
  EXPECT_DOUBLE_EQ(original.seconds, cached.seconds);
  // ZDT designs are real vectors: the codec round-trips them exactly.
  ASSERT_EQ(original.final_designs.size(), cached.final_designs.size());
  for (std::size_t i = 0; i < original.final_designs.size(); ++i) {
    EXPECT_EQ(original.final_designs[i].as<std::vector<double>>(),
              cached.final_designs[i].as<std::vector<double>>());
  }
  EXPECT_EQ(original.provenance.knobs, cached.provenance.knobs);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, NocDesignsRoundTripThroughDisk) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-noc-cache";
  std::filesystem::remove_all(dir);

  RunRequest request;
  request.problem = "noc";
  request.problem_options.app = "BFS";
  request.problem_options.num_objectives = 3;
  request.problem_options.small_platform = true;
  request.algorithm = "nsga2";
  request.options.max_evaluations = 150;
  request.options.snapshot_interval = 0;
  request.options.population_size = 8;
  request.need_designs = true;

  RunReport original;
  {
    ResultCache cache(dir.string());
    Executor executor({.jobs = 1, .cache = &cache});
    original = executor.run_all({request})[0];
  }
  ResultCache cache(dir.string());
  Executor executor({.jobs = 1, .cache = &cache});
  const auto cached = executor.run_all({request})[0];
  EXPECT_TRUE(cached.provenance.cache_hit);
  expect_equal_reports(original, cached, "noc disk cache hit");
  const auto original_designs = original.designs_as<noc::NocDesign>();
  const auto cached_designs = cached.designs_as<noc::NocDesign>();
  ASSERT_EQ(original_designs.size(), cached_designs.size());
  ASSERT_FALSE(cached_designs.empty());
  for (std::size_t i = 0; i < original_designs.size(); ++i) {
    EXPECT_EQ(original_designs[i], cached_designs[i]);
  }
  // A fresh cache on the same directory serves a need_designs lookup too.
  const auto direct =
      ResultCache(dir.string()).lookup(request.cache_key(), true);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->designs_as<noc::NocDesign>(), original_designs);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, NeedDesignsRejectsDisklossEntries) {
  // A report whose design type has no codec serializes as "designs none";
  // a need_designs lookup from a fresh (memory-empty) cache must treat it
  // as a miss, while a plain lookup serves the front/trace data.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-none-cache";
  std::filesystem::remove_all(dir);

  RunReport report;
  report.algorithm = "custom";
  report.evaluations = 10;
  report.final_front = {{1.0, 2.0}};
  report.final_objectives = {{1.0, 2.0}};
  report.final_designs.push_back(AnyDesign::wrap<int>(7));  // no codec

  const std::string key = "custom-key";
  {
    ResultCache cache(dir.string());
    cache.store(key, report);
    // The memory tier still holds the original, designs included.
    auto hit = cache.lookup(key, /*need_designs=*/true);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->final_designs.size(), 1u);
  }
  ResultCache fresh(dir.string());
  EXPECT_FALSE(fresh.lookup(key, /*need_designs=*/true).has_value());
  auto partial = fresh.lookup(key, /*need_designs=*/false);
  ASSERT_TRUE(partial.has_value());
  EXPECT_TRUE(partial->final_designs.empty());
  EXPECT_EQ(partial->final_front, report.final_front);
  // The plain lookup promoted the designs-less disk entry into the memory
  // tier; a need_designs lookup must still treat it as a miss.
  EXPECT_FALSE(fresh.lookup(key, /*need_designs=*/true).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, SkipsCancelledReportsAndEmptyKeys) {
  ResultCache cache;
  RunReport cancelled;
  cancelled.provenance.cancelled = true;
  cache.store("some-key", cancelled);
  EXPECT_FALSE(cache.lookup("some-key").has_value());
  RunReport fine;
  cache.store("", fine);
  EXPECT_FALSE(cache.lookup("").has_value());
  EXPECT_EQ(cache.stats().stores, 0u);
}

/// The disk-tier entry file of `key` under `dir`.
std::filesystem::path entry_path(const std::filesystem::path& dir,
                                 const std::string& key) {
  return dir / (ResultCache::hash_key(key) + ".moela");
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

RunReport small_report() {
  RunReport report;
  report.algorithm = "X";
  report.final_front = {{1.0, 2.0}};
  report.final_objectives = {{1.0, 2.0}};
  report.evaluations = 10;
  return report;
}

TEST(ResultCacheSerialization, RoundTripsAwkwardDoubles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-awkward-cache";
  fs::remove_all(dir);

  RunReport report;
  report.algorithm = "Name With Spaces";
  report.evaluations = 42;
  report.seconds = 1.0 / 3.0;
  report.provenance.seed = 9;
  report.provenance.knobs["a.b"] = 0.1;  // not exactly representable
  report.provenance.knobs["c"] = 5e-324;  // smallest denormal
  core::ArchiveSnapshot snapshot;
  snapshot.evaluations = 21;
  snapshot.seconds = 0.123456789123456789;
  snapshot.front = {{1.0 / 7.0, -2.5e300}};
  report.snapshots.push_back(snapshot);
  report.final_front = {{0.1 + 0.2, 3.0}};
  report.final_objectives = {{0.1 + 0.2, 3.0}};

  ResultCache(dir.string()).store("k", report);
  ResultCache reader(dir.string());  // empty memory tier: disk only
  const auto back = reader.lookup("k");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(back->algorithm, report.algorithm);
  EXPECT_EQ(back->evaluations, report.evaluations);
  EXPECT_EQ(back->seconds, report.seconds);  // bit-exact, not approximate
  EXPECT_EQ(back->provenance.knobs, report.provenance.knobs);
  ASSERT_EQ(back->snapshots.size(), 1u);
  EXPECT_EQ(back->snapshots[0].seconds, report.snapshots[0].seconds);
  EXPECT_EQ(back->snapshots[0].front, report.snapshots[0].front);
  EXPECT_EQ(back->final_front, report.final_front);
  EXPECT_EQ(back->provenance.cache_key, "k");

  // A different key (hash collision in disguise) reads as a miss.
  fs::copy_file(entry_path(dir, "k"), entry_path(dir, "other-key"));
  EXPECT_FALSE(ResultCache(dir.string()).lookup("other-key").has_value());
  fs::remove_all(dir);
}

TEST(ResultCacheSerialization, EntryIsOneJsonLineHoldingKeyAndWireReport) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-line-cache";
  fs::remove_all(dir);
  RunReport report = small_report();
  report.provenance.trace_id = "needs \"escaping\"\n";
  const std::string key = "zdt1|knob=\"x\"";
  ResultCache(dir.string()).store(key, report);

  const std::string text = read_text(entry_path(dir, key));
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.find('\n'), text.size() - 1);  // exactly one line
  const util::Json entry = util::Json::parse(text);
  EXPECT_EQ(entry.as_object().size(), 2u);
  EXPECT_EQ(entry.find("key")->as_string(), key);
  std::string wire;
  append_report_json(wire, report);
  EXPECT_EQ(entry.find("report")->dump(), wire);
  fs::remove_all(dir);
}

TEST(ResultCacheSerialization, UnreadableEntriesMissAndAreReplaced) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-bad-cache";
  fs::remove_all(dir);
  const RunReport report = small_report();
  ResultCache(dir.string()).store("k", report);
  ResultCache(dir.string()).store("other-key", report);
  const std::string good = read_text(entry_path(dir, "k"));
  const std::string other = read_text(entry_path(dir, "other-key"));

  const std::pair<const char*, std::string> cases[] = {
      {"legacy moela-report v1 file",
       "moela-report v1\nkey k\nalgorithm X\nproblem -\n"
       "algorithm_key -\nseed 0\nevaluations 10\nseconds 0x0p+0\n"
       "knobs 0\nsnapshots 0\nfront 1 2\n0x1p+0 0x1p+1\n"
       "objectives 1 2\n0x1p+0 0x1p+1\ndesigns none 0\n"},
      {"truncated JSON line", good.substr(0, good.size() / 2)},
      {"valid line, embedded key differs", other},
      {"valid line, report not an object", "{\"key\":\"k\",\"report\":7}\n"},
  };
  for (const auto& [what, text] : cases) {
    write_text(entry_path(dir, "k"), text);
    ResultCache cache(dir.string());
    EXPECT_FALSE(cache.lookup("k").has_value()) << what;
    EXPECT_EQ(cache.stats().misses, 1u) << what;
    cache.store("k", report);
    EXPECT_EQ(read_text(entry_path(dir, "k")), good) << what;
    ResultCache fresh(dir.string());
    const auto hit = fresh.lookup("k");
    ASSERT_TRUE(hit.has_value()) << what;
    EXPECT_EQ(fresh.stats().disk_hits, 1u) << what;
    EXPECT_EQ(hit->final_front, report.final_front) << what;
  }
  fs::remove_all(dir);
}

// --- Knob-key declarations ------------------------------------------------

TEST(KnobKeys, BuiltinsDeclareTheirKeys) {
  const auto moela_keys = registry().knob_keys("moela");
  EXPECT_NE(std::find(moela_keys.begin(), moela_keys.end(), "moela.delta"),
            moela_keys.end());
  EXPECT_NE(std::find(moela_keys.begin(), moela_keys.end(),
                      "moela.forest.trees"),
            moela_keys.end());
  for (const auto& name : registry().names()) {
    EXPECT_FALSE(registry().knob_keys(name).empty()) << name;
  }
}

TEST(KnobKeys, UnknownKnobKeysFlagsTyposOnly) {
  KnobBag knobs;
  knobs.set("moela.delta", 0.9)          // recognized by moela
      .set("nsga2.max_generations", 50)  // recognized by nsga2
      .set("moela.detla", 0.5);          // typo: recognized by nobody
  const auto unknown =
      registry().unknown_knob_keys(knobs, {"moela", "nsga2"});
  EXPECT_EQ(unknown, std::vector<std::string>{"moela.detla"});
}

TEST(KnobKeys, UndeclaredOptimizerSuppressesWarnings) {
  // An optimizer registered without declared keys may accept anything, so
  // the check must stay silent rather than cry wolf.
  registry().add("test-undeclared-opt", [](AnyProblem p) {
    return registry().create("nsga2", std::move(p));
  });
  KnobBag knobs;
  knobs.set("whatever.key", 1.0);
  EXPECT_TRUE(
      registry().unknown_knob_keys(knobs, {"test-undeclared-opt"}).empty());
}

// --- ResultCache: disk size cap / LRU eviction ----------------------------

TEST(ResultCache, DiskTierEvictsLeastRecentlyUsed) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-lru-cache";
  fs::remove_all(dir);

  RunReport report;
  report.algorithm = "X";
  report.final_front = {{1.0, 2.0}};
  report.final_objectives = {{1.0, 2.0}};
  report.evaluations = 10;

  ResultCache writer(dir.string());
  writer.set_max_disk_bytes(0);  // no cap while seeding
  writer.store("key-a", report);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  writer.store("key-b", report);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto entry_bytes = fs::file_size(
      dir / (ResultCache::hash_key("key-a") + ".moela"));

  // Touch key-a from a FRESH cache (disk hit → recency bump); the memory
  // tier of `writer` would otherwise satisfy the lookup without touching
  // the file.
  {
    ResultCache reader(dir.string());
    EXPECT_TRUE(reader.lookup("key-a").has_value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Cap fits two entries; storing the third must evict the least recently
  // USED one — key-b, not the just-bumped key-a.
  writer.set_max_disk_bytes(entry_bytes * 2 + entry_bytes / 2);
  writer.store("key-c", report);
  EXPECT_GE(writer.stats().evictions, 1u);

  ResultCache reader(dir.string());
  EXPECT_TRUE(reader.lookup("key-a").has_value());
  EXPECT_FALSE(reader.lookup("key-b").has_value());
  EXPECT_TRUE(reader.lookup("key-c").has_value());
}

TEST(ResultCache, OversizedSingleEntryEvictsWithoutLooping) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-oversize-cache";
  fs::remove_all(dir);

  RunReport report;
  report.algorithm = "X";
  report.final_front = {{1.0, 2.0}, {3.0, 4.0}};
  report.final_objectives = {{1.0, 2.0}, {3.0, 4.0}};
  report.evaluations = 10;

  ResultCache cache(dir.string());
  cache.set_max_disk_bytes(1);  // any real entry busts the cap by itself
  // Must terminate (the "keep the just-written entry" rule yields to a
  // cap the entry alone exceeds — no retry/eviction loop) and must count
  // exactly the one eviction.
  cache.store("too-big", report);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(
      fs::exists(dir / (ResultCache::hash_key("too-big") + ".moela")));

  // The memory tier is uncapped: the report is still served in-process.
  EXPECT_TRUE(cache.lookup("too-big").has_value());
  // A fresh cache (disk only) correctly misses.
  ResultCache reader(dir.string());
  EXPECT_FALSE(reader.lookup("too-big").has_value());

  // Repeated oversized stores keep evicting one file each, never more.
  cache.store("too-big-2", report);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ResultCache, ZeroCapDisablesEvictionEntirely) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-nocap-cache";
  fs::remove_all(dir);

  RunReport report;
  report.algorithm = "X";
  report.final_front = {{1.0, 2.0}};
  report.final_objectives = {{1.0, 2.0}};
  report.evaluations = 10;

  ResultCache cache(dir.string());
  cache.set_max_disk_bytes(0);  // 0 = no cap, NOT "evict everything"
  for (int i = 0; i < 5; ++i) {
    cache.store("key-" + std::to_string(i), report);
  }
  EXPECT_EQ(cache.stats().stores, 5u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fs::exists(
        dir / (ResultCache::hash_key("key-" + std::to_string(i)) +
               ".moela")))
        << i;
  }
}

// --- Executor: per-run structured logs ------------------------------------

TEST(Executor, RunLogWritesOneJsonlRecordPerRun) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(testing::TempDir()) / "moela-run-log.jsonl";
  fs::remove(path);

  RunLogger logger(path.string());
  ASSERT_TRUE(logger.ok());
  std::vector<RunRequest> requests = {zdt1_request("moela", 5),
                                      zdt1_request("nsga2", 6)};
  RunRequest bad = zdt1_request("moela", 7);
  bad.algorithm = "no-such-algorithm";
  requests.push_back(bad);
  for (RunRequest& request : requests) {
    request.trace_id = "00deadbeef00cafe";
  }

  ExecutorConfig config;
  config.jobs = 2;
  config.run_log = &logger;
  Executor executor(config);
  auto futures = executor.submit(std::move(requests));
  EXPECT_NO_THROW(futures[0].get());
  EXPECT_NO_THROW(futures[1].get());
  EXPECT_THROW(futures[2].get(), std::exception);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t ok_records = 0, error_records = 0;
  while (std::getline(in, line)) {
    const util::Json record = util::Json::parse(line);  // valid JSON/line
    // Every record is versioned, timestamped (ISO-8601), and — when the
    // request carried one — trace-correlated, ok and error alike.
    EXPECT_EQ(record.find("v")->as_u64(), 1u);
    const std::string time = record.find("time")->as_string();
    EXPECT_EQ(time.size(), std::string("2026-01-01T00:00:00Z").size());
    EXPECT_EQ(time.back(), 'Z');
    ASSERT_NE(record.find("trace"), nullptr);
    EXPECT_EQ(record.find("trace")->as_string(), "00deadbeef00cafe");
    const std::string status = record.find("status")->as_string();
    if (status == "ok") {
      ++ok_records;
      EXPECT_EQ(record.find("evaluations")->as_u64(), 600u);
      EXPECT_FALSE(record.find("cache_hit")->as_bool());
      EXPECT_FALSE(record.find("label")->as_string().empty());
    } else {
      ++error_records;
      EXPECT_EQ(status, "error");
      EXPECT_NE(record.find("error")->as_string().find("no-such-algorithm"),
                std::string::npos);
    }
  }
  EXPECT_EQ(ok_records, 2u);
  EXPECT_EQ(error_records, 1u);
}

}  // namespace
}  // namespace moela::api
