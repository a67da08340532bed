// JSON (de)serialization for the batched-execution value types — the wire
// schema of the serving protocol (src/serve/), the entry format of the
// result cache's disk tier, and the per-run structured logs. The JSON field names map 1:1 onto the C++ members, so a request
// hand-written against api/request.hpp works unchanged over the socket.
//
// Exactness contract: every double that feeds results or cache keys
// (objective values, seconds, knob values) travels as a hexfloat string
// (util::exact_number), so a RunReport deserialized from the wire is
// bit-identical to the in-process one. Deserializers also accept plain
// JSON numbers for human-written requests.
//
// RunRequest limitations: only keyed problems serialize — a request whose
// problem is bound directly (RunRequest::bound_problem) has no stable
// description and request_from_json never produces one.
#pragma once

#include <string>

#include "api/optimizer.hpp"
#include "api/request.hpp"
#include "util/json.hpp"

namespace moela::api {

/// Request → JSON. Fields: problem, problem_options{objectives, variables,
/// seed, app, small_platform}, algorithm, options{evals, seconds, snapshot,
/// seed, pop, n_local, knobs{}}, need_designs, label, trace, checkpoint,
/// and (only when present) a resume snapshot (api/snapshot.hpp). Defaults
/// are written explicitly so the wire form is self-contained.
util::Json request_to_json(const RunRequest& request);

/// JSON → request. Unknown fields are ignored (forward compatibility);
/// absent fields keep their C++ defaults. Throws util::JsonError on a
/// type mismatch or a missing required field (problem, algorithm).
RunRequest request_from_json(const util::Json& json);

/// Report → JSON text, appended to `out`: the one RunReport encoding, used
/// by the daemon's `run` responses and the result cache's disk tier alike.
/// Fields: algorithm, designs{kind, values}, evaluations, final_front,
/// final_objectives, provenance{...}, seconds, snapshots[]. Designs are
/// type-erased: real / binary / noc kinds serialize, other design types
/// write kind "none" and drop the payload. Streams without a Json tree, and
/// the bytes equal Json::parse(text).dump(): one line, sorted keys.
void append_report_json(std::string& out, const RunReport& report);

/// JSON → report. Throws util::JsonError on malformed input.
RunReport report_from_json(const util::Json& json);

}  // namespace moela::api
