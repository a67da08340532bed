// Golden-file tests for the RunSnapshot codec (api/snapshot.hpp): for a
// fixed tiny request, every registered algorithm's serialized snapshot must
// be BYTE-stable — across rebuilds, optimization levels, locales, and
// refactors. The checked-in goldens under tests/golden/snapshots/ are the
// contract: a diff here means on-disk snapshots (and the wire's "snapshot"
// event field) changed shape, which silently strands every fleet daemon's
// persisted checkpoints. If the change is intentional, bump
// api::kSnapshotSchemaVersion (so stale files read as fingerprint
// mismatches, not garbage replays) and regenerate with
//   MOELA_UPDATE_GOLDENS=1 ./tests/test_snapshot_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/registry.hpp"
#include "api/request.hpp"
#include "api/snapshot.hpp"

namespace moela::api {
namespace {

/// The fixed request behind every golden: tiny enough that each journal is
/// a handful of rows, rich enough (multi-generation, local search on) that
/// the journal covers real algorithm behavior, not just the initial
/// population.
RunRequest golden_request(const std::string& algorithm) {
  RunRequest request;
  request.problem = "zdt1";
  request.problem_options.num_variables = 10;
  request.algorithm = algorithm;
  request.checkpoint = true;
  request.options.max_evaluations = 16;
  request.options.snapshot_interval = 8;
  request.options.seed = 7;
  request.options.population_size = 8;
  request.options.n_local = 2;
  // Keep the ML-assisted variants cheap and fully pinned.
  request.options.knobs.set("moela.forest.trees", 4)
      .set("moela.forest.max_depth", 5)
      .set("moela.ls.max_evals", 6)
      .set("moos.ls.max_evals", 6)
      .set("stage.forest.trees", 4)
      .set("stage.forest.max_depth", 5)
      .set("stage.ls.max_steps", 3);
  return request;
}

std::filesystem::path golden_dir() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "snapshots";
}

/// Runs the request on a single-threaded Executor and returns the LAST
/// snapshot streamed on the progress cadence — the same artifact a daemon
/// persists to snapshot_dir and ships in the "snapshot" event field.
std::shared_ptr<const RunSnapshot> last_streamed_snapshot(
    const RunRequest& request) {
  Executor executor({.jobs = 1});
  std::shared_ptr<const RunSnapshot> last;
  RunControl control;
  control.on_progress([&](const RunProgress& progress) {
    if (progress.snapshot != nullptr) last = progress.snapshot;
  });
  executor.run_all({request}, &control);
  return last;
}

/// A moela request on the small NoC long enough that later generations pick
/// their local-search starts by the Eval model's predictions (gen >=
/// iter_early with a trained forest). golden_request() stops at 16
/// evaluations, before the model is ever consulted, so this is the golden
/// that pins the forest trainer's output.
RunRequest guided_request() {
  RunRequest request = golden_request("moela");
  request.problem = "noc";
  request.problem_options = {};
  request.problem_options.num_objectives = 3;
  request.problem_options.small_platform = true;
  request.options.max_evaluations = 200;
  request.options.snapshot_interval = 50;
  return request;
}

/// Checks `request`'s last streamed snapshot against `<stem>.snap.json`
/// (or rewrites the file under MOELA_UPDATE_GOLDENS).
void expect_matches_golden(const std::string& stem,
                           const RunRequest& request) {
  const bool update = std::getenv("MOELA_UPDATE_GOLDENS") != nullptr;
  if (update) std::filesystem::create_directories(golden_dir());
  const std::shared_ptr<const RunSnapshot> snapshot =
      last_streamed_snapshot(request);
  ASSERT_NE(snapshot, nullptr) << stem << " streamed no snapshot";
  EXPECT_EQ(snapshot->fingerprint, snapshot_fingerprint(request));
  EXPECT_EQ(snapshot->evaluations, snapshot->journal.size());
  EXPECT_GT(snapshot->evaluations, 0u);

  const std::string text = snapshot_to_text(*snapshot);
  const std::filesystem::path file = golden_dir() / (stem + ".snap.json");
  if (update) {
    std::ofstream out(file, std::ios::binary);
    out << text;
    return;
  }
  ASSERT_TRUE(std::filesystem::exists(file))
      << file << " missing - regenerate with MOELA_UPDATE_GOLDENS=1";
  std::ifstream in(file, std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str())
      << stem << ": snapshot bytes drifted from the checked-in golden; "
      << "if intentional, bump kSnapshotSchemaVersion and regenerate";

  // And the golden itself must replay: decode it and resume the run from
  // it — the report must be bit-identical to the uninterrupted one.
  const RunSnapshot decoded = snapshot_from_text(golden.str());
  EXPECT_EQ(decoded.fingerprint, snapshot->fingerprint);
  EXPECT_EQ(decoded.evaluations, snapshot->evaluations);
  EXPECT_EQ(decoded.journal, snapshot->journal);
}

TEST(SnapshotGolden, EveryAlgorithmsSnapshotMatchesItsCheckedInBytes) {
  const std::vector<std::string> names = registry().names();
  ASSERT_GE(names.size(), 8u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    expect_matches_golden(name, golden_request(name));
  }
}

TEST(SnapshotGolden, GuidedMoelaRunMatchesItsCheckedInBytes) {
  expect_matches_golden("moela-guided", guided_request());
}

TEST(SnapshotGolden, ResumingFromTheGoldenIsBitIdenticalForEveryAlgorithm) {
  Executor executor({.jobs = 1});
  for (const std::string& name : registry().names()) {
    SCOPED_TRACE(name);
    RunRequest plain = golden_request(name);
    plain.checkpoint = false;
    const RunReport reference = executor.run_all({plain}).front();

    // Resume from a mid-run snapshot (the first cadence point, so a real
    // live tail remains after the replayed prefix).
    RunRequest request = golden_request(name);
    std::shared_ptr<const RunSnapshot> first;
    RunControl control;
    control.on_progress([&](const RunProgress& progress) {
      if (first == nullptr && progress.snapshot != nullptr) {
        first = progress.snapshot;
      }
    });
    executor.run_all({request}, &control);
    ASSERT_NE(first, nullptr);

    request.resume = first;
    const RunReport resumed = executor.run_all({request}).front();
    EXPECT_EQ(resumed.algorithm, reference.algorithm);
    EXPECT_EQ(resumed.final_front, reference.final_front);
    EXPECT_EQ(resumed.final_objectives, reference.final_objectives);
    EXPECT_EQ(resumed.evaluations, reference.evaluations);
    ASSERT_EQ(resumed.snapshots.size(), reference.snapshots.size());
    for (std::size_t i = 0; i < resumed.snapshots.size(); ++i) {
      EXPECT_EQ(resumed.snapshots[i].evaluations,
                reference.snapshots[i].evaluations);
      EXPECT_EQ(resumed.snapshots[i].front, reference.snapshots[i].front);
    }
    EXPECT_FALSE(resumed.provenance.cancelled);
  }
}

}  // namespace
}  // namespace moela::api
