// Tests for the RunRequest / RunReport JSON serde (api/serde.hpp): full
// field round-trips (including knobs, problem options, provenance and the
// three design kinds), bit-exact doubles through the wire form, the
// validation errors for malformed requests, and the streaming report
// encoder's bytes against the frozen tree-building oracle
// (reference_report_json.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/serde.hpp"
#include "noc/design.hpp"
#include "noc/generator.hpp"
#include "noc/platform.hpp"
#include "reference_report_json.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace moela::api {
namespace {

using util::Json;

std::string report_json(const RunReport& report) {
  std::string out;
  append_report_json(out, report);
  return out;
}

RunRequest sample_request() {
  RunRequest request;
  request.problem = "noc";
  request.problem_options.num_objectives = 5;
  request.problem_options.num_variables = 7;
  request.problem_options.seed = 3;
  request.problem_options.app = "SRAD";
  request.problem_options.small_platform = true;
  request.algorithm = "moela";
  request.options.max_evaluations = 1234;
  request.options.max_seconds = 1.0 / 3.0;  // not representable in decimal
  request.options.snapshot_interval = 77;
  request.options.seed = (1ull << 60) + 9;  // above double's exact range
  request.options.population_size = 24;
  request.options.n_local = 4;
  request.options.knobs.set("moela.delta", 0.9).set("moela.forest.trees", 8);
  request.need_designs = true;
  request.label = "unit:test";
  return request;
}

TEST(RequestSerde, RoundTripsEveryField) {
  const RunRequest original = sample_request();
  const RunRequest back =
      request_from_json(Json::parse(request_to_json(original).dump()));

  EXPECT_EQ(back.problem, original.problem);
  EXPECT_EQ(back.algorithm, original.algorithm);
  EXPECT_EQ(back.problem_options.num_objectives,
            original.problem_options.num_objectives);
  EXPECT_EQ(back.problem_options.num_variables,
            original.problem_options.num_variables);
  EXPECT_EQ(back.problem_options.seed, original.problem_options.seed);
  EXPECT_EQ(back.problem_options.app, original.problem_options.app);
  EXPECT_EQ(back.problem_options.small_platform,
            original.problem_options.small_platform);
  EXPECT_EQ(back.options.max_evaluations, original.options.max_evaluations);
  EXPECT_EQ(back.options.max_seconds, original.options.max_seconds);
  EXPECT_EQ(back.options.snapshot_interval,
            original.options.snapshot_interval);
  EXPECT_EQ(back.options.seed, original.options.seed);
  EXPECT_EQ(back.options.population_size, original.options.population_size);
  EXPECT_EQ(back.options.n_local, original.options.n_local);
  EXPECT_EQ(back.options.knobs.values(), original.options.knobs.values());
  EXPECT_EQ(back.need_designs, original.need_designs);
  EXPECT_EQ(back.label, original.label);

  // The decisive invariant: identical cache keys, so a request routed
  // through the daemon hits the same cache entries as an inline one.
  EXPECT_EQ(back.cache_key(), original.cache_key());
}

TEST(RequestSerde, DefaultsApplyForAbsentFields) {
  const RunRequest back = request_from_json(
      Json::parse(R"({"problem":"zdt1","algorithm":"nsga2"})"));
  const RunRequest defaults;
  EXPECT_EQ(back.options.max_evaluations, defaults.options.max_evaluations);
  EXPECT_EQ(back.options.seed, defaults.options.seed);
  EXPECT_EQ(back.problem_options.app, defaults.problem_options.app);
  EXPECT_FALSE(back.need_designs);
}

TEST(RequestSerde, PlainDecimalNumbersAreAccepted) {
  // Hand-written requests use ordinary literals, not hexfloat strings.
  const RunRequest back = request_from_json(Json::parse(
      R"({"problem":"zdt1","algorithm":"moela",
          "options":{"seconds":1.5,"knobs":{"moela.delta":0.25}}})"));
  EXPECT_EQ(back.options.max_seconds, 1.5);
  EXPECT_EQ(back.options.knobs.get_or("moela.delta", 0.0), 0.25);
}

TEST(RequestSerde, RejectsMissingProblemOrAlgorithm) {
  EXPECT_THROW(request_from_json(Json::parse(R"({"algorithm":"x"})")),
               util::JsonError);
  EXPECT_THROW(request_from_json(Json::parse(R"({"problem":"zdt1"})")),
               util::JsonError);
  EXPECT_THROW(
      request_from_json(Json::parse(
          R"({"problem":"zdt1","algorithm":"x","options":{"evals":"NaN"}})")),
      util::JsonError);
}

TEST(ReportSerde, PriorityProvenanceRoundTripsAndDefaults) {
  RunReport original;
  original.algorithm = "hand-built";
  original.provenance.priority = "interactive";
  const RunReport back =
      report_from_json(Json::parse(report_json(original)));
  EXPECT_EQ(back.provenance.priority, "interactive");

  // A report from a peer predating the scheduler carries no priority
  // field: the default class stands instead of an empty string.
  const RunReport legacy = report_from_json(
      Json::parse(R"({"algorithm":"x","provenance":{"seed":1}})"));
  EXPECT_EQ(legacy.provenance.priority, "normal");
}

void expect_bit_identical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.final_front, b.final_front);
  EXPECT_EQ(a.final_objectives, b.final_objectives);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.seconds, b.seconds);
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(a.snapshots[i].evaluations, b.snapshots[i].evaluations);
    EXPECT_EQ(a.snapshots[i].seconds, b.snapshots[i].seconds);
    EXPECT_EQ(a.snapshots[i].front, b.snapshots[i].front);
  }
  EXPECT_EQ(a.provenance.problem, b.provenance.problem);
  EXPECT_EQ(a.provenance.algorithm_key, b.provenance.algorithm_key);
  EXPECT_EQ(a.provenance.seed, b.provenance.seed);
  EXPECT_EQ(a.provenance.knobs, b.provenance.knobs);
  EXPECT_EQ(a.provenance.cache_key, b.provenance.cache_key);
  EXPECT_EQ(a.provenance.cache_hit, b.provenance.cache_hit);
  EXPECT_EQ(a.provenance.cancelled, b.provenance.cancelled);
  EXPECT_EQ(a.provenance.priority, b.provenance.priority);
}

/// Runs a real optimizer so the report carries genuine snapshots, fronts
/// and designs of the given problem family.
RunReport run_report(const std::string& problem, const std::string& algo) {
  RunRequest request;
  request.problem = problem;
  request.algorithm = algo;
  request.options.max_evaluations = 400;
  request.options.snapshot_interval = 100;
  request.options.population_size = 12;
  request.options.n_local = 2;
  Executor executor({.jobs = 1});
  return executor.run_all({request}).front();
}

TEST(ReportSerde, RealDesignsRoundTripBitIdentical) {
  const RunReport original = run_report("zdt1", "nsga2");
  ASSERT_FALSE(original.final_designs.empty());
  const RunReport back =
      report_from_json(Json::parse(report_json(original)));
  expect_bit_identical(original, back);
  EXPECT_EQ(back.designs_as<std::vector<double>>(),
            original.designs_as<std::vector<double>>());
}

TEST(ReportSerde, BinaryDesignsRoundTrip) {
  const RunReport original = run_report("knapsack", "nsga2");
  ASSERT_FALSE(original.final_designs.empty());
  const RunReport back =
      report_from_json(Json::parse(report_json(original)));
  expect_bit_identical(original, back);
  EXPECT_EQ(back.designs_as<std::vector<std::uint8_t>>(),
            original.designs_as<std::vector<std::uint8_t>>());
}

TEST(ReportSerde, NocDesignsRoundTrip) {
  RunReport original;
  original.algorithm = "hand-built";
  const noc::PlatformSpec spec = noc::PlatformSpec::small_3x3x3();
  const noc::DesignOps ops(spec);
  util::Rng rng(7);
  original.final_designs.push_back(
      AnyDesign::wrap<noc::NocDesign>(ops.random_design(rng)));
  original.final_objectives.push_back({1.0, 2.0});
  const RunReport back =
      report_from_json(Json::parse(report_json(original)));
  ASSERT_EQ(back.final_designs.size(), 1u);
  EXPECT_EQ(back.designs_as<noc::NocDesign>().front(),
            original.designs_as<noc::NocDesign>().front());
}

TEST(ReportSerde, UnknownDesignTypeDegradesToNone) {
  RunReport original;
  original.algorithm = "custom";
  original.final_designs.push_back(AnyDesign::wrap<int>(7));
  const RunReport back =
      report_from_json(Json::parse(report_json(original)));
  EXPECT_TRUE(back.final_designs.empty());  // payload dropped, not garbled
  EXPECT_EQ(back.algorithm, "custom");
}

/// The streaming encoder writes the oracle's bytes, and those bytes are
/// already canonical: parsing and re-dumping them changes nothing.
void expect_reference_bytes(const RunReport& report, const char* what) {
  const std::string streamed = report_json(report);
  EXPECT_EQ(streamed, reference::report_to_json(report).dump()) << what;
  EXPECT_EQ(Json::parse(streamed).dump(), streamed) << what;
}

TEST(ReportEncoder, MatchesReferenceForEachDesignKind) {
  expect_reference_bytes(run_report("zdt1", "nsga2"), "real");
  expect_reference_bytes(run_report("knapsack", "moead"), "binary");

  RunReport noc_report;
  noc_report.algorithm = "hand-built";
  const noc::PlatformSpec spec = noc::PlatformSpec::small_3x3x3();
  const noc::DesignOps ops(spec);
  util::Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    noc_report.final_designs.push_back(
        AnyDesign::wrap<noc::NocDesign>(ops.random_design(rng)));
    noc_report.final_objectives.push_back({0.1 * i, 1.0 / 3.0, -2.5e300});
  }
  noc_report.final_front = noc_report.final_objectives;
  expect_reference_bytes(noc_report, "noc");

  RunReport none;
  none.algorithm = "custom";
  none.final_designs.push_back(AnyDesign::wrap<int>(7));
  none.final_front = {{1.0, 2.0}};
  expect_reference_bytes(none, "unknown design type");
}

TEST(ReportEncoder, MatchesReferenceForEmptyReport) {
  expect_reference_bytes(RunReport{}, "default-constructed");
}

TEST(ReportEncoder, MatchesReferenceWithEscapesAndAwkwardDoubles) {
  RunReport report;
  report.algorithm = "quote\" back\\slash";
  report.evaluations = 18446744073709551615ull;
  report.seconds = -0.0;
  report.provenance.problem = "tab\there";
  report.provenance.algorithm_key = "";
  report.provenance.seed = (1ull << 60) + 9;
  report.provenance.knobs["line\nbreak"] = 5e-324;  // smallest denormal
  report.provenance.knobs["ctl\x01\x1f"] = 0.1;
  report.provenance.knobs["plain"] = 1e308;
  report.provenance.cache_key = "zdt1|knob=\"x\"";
  report.provenance.cache_hit = true;
  report.provenance.cancelled = true;
  report.provenance.priority = "batch";
  report.provenance.trace_id = "trace\r\n\b\f\u00e9";
  core::ArchiveSnapshot empty_snapshot;
  core::ArchiveSnapshot snapshot;
  snapshot.evaluations = 21;
  snapshot.seconds = 0.123456789123456789;
  snapshot.front = {{1.0 / 7.0, -2.5e300}, {0.0, 1.0}};
  report.snapshots = {empty_snapshot, snapshot};
  report.final_front = {{}};
  report.final_objectives = {{0.1 + 0.2, 3.0}};
  report.final_designs.push_back(
      AnyDesign::wrap<std::vector<double>>(std::vector<double>{}));
  expect_reference_bytes(report, "escapes");
}

}  // namespace
}  // namespace moela::api
