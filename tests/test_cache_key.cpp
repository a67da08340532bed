// Golden tests for RunRequest::cache_key(): the EXACT key strings for
// representative requests are pinned here, so any change to the key schema
// — a renamed field, a reordered segment, a forgotten version bump — fails
// loudly instead of silently invalidating (or worse, ALIASING) every
// cached result on users' disks.
//
// When a change to the key schema is intentional: bump
// api::kCacheSchemaVersion in api/request.hpp and re-pin these strings in
// the same commit.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/request.hpp"
#include "api/snapshot.hpp"

namespace moela::api {
namespace {

TEST(CacheKeyGolden, VersionSaltLeadsTheKey) {
  RunRequest request;
  request.problem = "zdt1";
  request.algorithm = "moela";
  const std::string prefix =
      "moela-run-v" + std::to_string(kCacheSchemaVersion) + "|";
  EXPECT_EQ(request.cache_key().rfind(prefix, 0), 0u)
      << "cache keys must start with the schema-version salt";
  // The salt itself is pinned: bumping it intentionally means updating the
  // golden strings below in the same commit.
  EXPECT_EQ(kCacheSchemaVersion, 3u);
}

TEST(CacheKeyGolden, DefaultOptionsKey) {
  RunRequest request;
  request.problem = "zdt1";
  request.algorithm = "moela";
  EXPECT_EQ(request.cache_key(),
            "moela-run-v3|problem=zdt1|objectives=0|variables=0|"
            "instance_seed=1|app=BFS|small=0|algorithm=moela|evals=20000|"
            "seconds=0x0p+0|snapshot=500|seed=1|pop=50|n_local=5|knobs=");
}

TEST(CacheKeyGolden, FullyLoadedNocKey) {
  RunRequest request;
  request.problem = "noc";
  request.problem_options.num_objectives = 5;
  request.problem_options.seed = 3;
  request.problem_options.app = "SRAD";
  request.problem_options.small_platform = true;
  request.algorithm = "moos";
  request.options.max_evaluations = 4000;
  request.options.max_seconds = 2.5;
  request.options.snapshot_interval = 250;
  request.options.seed = 11;
  request.options.population_size = 24;
  request.options.n_local = 4;
  request.options.knobs.set("moos.temperature", 0.75).set("moos.alpha", 2);
  // Knobs render sorted, doubles as hexfloat — both pinned here.
  EXPECT_EQ(request.cache_key(),
            "moela-run-v3|problem=noc|objectives=5|variables=0|"
            "instance_seed=3|app=SRAD|small=1|algorithm=moos|evals=4000|"
            "seconds=0x1.4p+1|snapshot=250|seed=11|pop=24|n_local=4|"
            "knobs=moos.alpha=0x1p+1,moos.temperature=0x1.8p-1");
}

TEST(CacheKeyGolden, KnapsackVariablesKey) {
  RunRequest request;
  request.problem = "knapsack";
  request.problem_options.num_variables = 64;
  request.algorithm = "nsga2";
  request.options.seed = 9;
  request.options.knobs.set("nsga2.max_generations", 120);
  EXPECT_EQ(request.cache_key(),
            "moela-run-v3|problem=knapsack|objectives=0|variables=64|"
            "instance_seed=1|app=BFS|small=0|algorithm=nsga2|evals=20000|"
            "seconds=0x0p+0|snapshot=500|seed=9|pop=50|n_local=5|"
            "knobs=nsga2.max_generations=0x1.ep+6");
}

TEST(CacheKeyGolden, EveryFieldSeparatesKeys) {
  // Complements the golden strings: each field must actually feed the key
  // (a dropped segment would alias distinct requests onto one entry).
  RunRequest base;
  base.problem = "zdt1";
  base.algorithm = "moela";
  const std::string base_key = base.cache_key();

  auto differs = [&](auto&& mutate) {
    RunRequest other = base;
    mutate(other);
    return other.cache_key() != base_key;
  };
  EXPECT_TRUE(differs([](RunRequest& r) { r.problem = "zdt2"; }));
  EXPECT_TRUE(differs([](RunRequest& r) { r.algorithm = "nsga2"; }));
  EXPECT_TRUE(differs([](RunRequest& r) {
    r.problem_options.num_objectives = 3;
  }));
  EXPECT_TRUE(differs([](RunRequest& r) {
    r.problem_options.num_variables = 5;
  }));
  EXPECT_TRUE(differs([](RunRequest& r) { r.problem_options.seed = 2; }));
  EXPECT_TRUE(differs([](RunRequest& r) { r.problem_options.app = "PF"; }));
  EXPECT_TRUE(differs([](RunRequest& r) {
    r.problem_options.small_platform = true;
  }));
  EXPECT_TRUE(differs([](RunRequest& r) {
    r.options.max_evaluations = 1;
  }));
  EXPECT_TRUE(differs([](RunRequest& r) { r.options.max_seconds = 1.0; }));
  EXPECT_TRUE(differs([](RunRequest& r) {
    r.options.snapshot_interval = 1;
  }));
  EXPECT_TRUE(differs([](RunRequest& r) { r.options.seed = 2; }));
  EXPECT_TRUE(differs([](RunRequest& r) {
    r.options.population_size = 1;
  }));
  EXPECT_TRUE(differs([](RunRequest& r) { r.options.n_local = 1; }));
  EXPECT_TRUE(differs([](RunRequest& r) { r.options.knobs.set("k", 1); }));
  // The label is display-only and must NOT feed the key.
  RunRequest labeled = base;
  labeled.label = "pretty name";
  EXPECT_EQ(labeled.cache_key(), base_key);
  // The trace id is transport provenance: two requests differing only in
  // trace are the SAME work, so it must never feed the key (a per-invocation
  // id in the key would defeat the cache entirely).
  RunRequest traced = base;
  traced.trace_id = "00deadbeef00cafe";
  EXPECT_EQ(traced.cache_key(), base_key);
  // Checkpointing is execution mechanics, not work identity: a resumed run
  // is bit-identical to the uninterrupted one, so neither the checkpoint
  // flag nor an attached resume snapshot may feed the key (they would
  // split one run's cache entry in two — and snapshots must never feed
  // cache_key() back, the fingerprint is deliberately one-way).
  RunRequest checkpointed = base;
  checkpointed.checkpoint = true;
  EXPECT_EQ(checkpointed.cache_key(), base_key);
  auto snapshot = std::make_shared<RunSnapshot>();
  snapshot->fingerprint = snapshot_fingerprint(base);
  snapshot->journal = {{0.5, 0.25}};
  snapshot->evaluations = 1;
  checkpointed.resume = snapshot;
  EXPECT_EQ(checkpointed.cache_key(), base_key);
}

}  // namespace
}  // namespace moela::api
