#include "api/serde.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "api/snapshot.hpp"
#include "noc/design.hpp"
#include "noc/io.hpp"

namespace moela::api {
namespace {

using util::Json;
using util::JsonError;

std::vector<moo::ObjectiveVector> rows_from_json(const Json& json) {
  std::vector<moo::ObjectiveVector> out;
  out.reserve(json.as_array().size());
  for (const auto& json_row : json.as_array()) {
    moo::ObjectiveVector row;
    row.reserve(json_row.as_array().size());
    for (const auto& v : json_row.as_array()) {
      row.push_back(util::exact_to_double(v));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Json knobs_to_json(const std::map<std::string, double>& knobs) {
  Json out = Json::object();
  for (const auto& [name, value] : knobs) {
    out.set(name, util::exact_number(value));
  }
  return out;
}

std::map<std::string, double> knobs_from_json(const Json& json) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : json.as_object()) {
    out[name] = util::exact_to_double(value);
  }
  return out;
}

// Field readers: absent fields keep the caller's default, present fields
// must have the right type (JsonError otherwise).
void read_u64(const Json& obj, const char* key, std::uint64_t& out) {
  if (const Json* v = obj.find(key)) out = v->as_u64();
}
void read_size(const Json& obj, const char* key, std::size_t& out) {
  if (const Json* v = obj.find(key)) {
    out = static_cast<std::size_t>(v->as_u64());
  }
}
void read_exact(const Json& obj, const char* key, double& out) {
  if (const Json* v = obj.find(key)) out = util::exact_to_double(*v);
}
void read_string(const Json& obj, const char* key, std::string& out) {
  if (const Json* v = obj.find(key)) out = v->as_string();
}
void read_bool(const Json& obj, const char* key, bool& out) {
  if (const Json* v = obj.find(key)) out = v->as_bool();
}

// ---------------------------------------------------------------- designs
// Three kinds: real vectors, binary vectors, NocDesign (via the noc/io text
// format, embedded as strings). append_report_json writes the same kinds.

std::vector<AnyDesign> designs_from_json(const Json& json) {
  std::vector<AnyDesign> out;
  std::string kind = "none";
  read_string(json, "kind", kind);
  const Json* values = json.find("values");
  if (kind == "none" || values == nullptr) return out;
  out.reserve(values->as_array().size());
  if (kind == "real") {
    for (const auto& row : values->as_array()) {
      std::vector<double> v;
      v.reserve(row.as_array().size());
      for (const auto& x : row.as_array()) {
        v.push_back(util::exact_to_double(x));
      }
      out.push_back(AnyDesign::wrap<std::vector<double>>(std::move(v)));
    }
    return out;
  }
  if (kind == "binary") {
    for (const auto& row : values->as_array()) {
      std::vector<std::uint8_t> v;
      v.reserve(row.as_array().size());
      for (const auto& x : row.as_array()) {
        v.push_back(static_cast<std::uint8_t>(x.as_u64()));
      }
      out.push_back(AnyDesign::wrap<std::vector<std::uint8_t>>(std::move(v)));
    }
    return out;
  }
  if (kind == "noc") {
    for (const auto& text : values->as_array()) {
      try {
        out.push_back(AnyDesign::wrap<noc::NocDesign>(
            noc::design_from_string(text.as_string())));
      } catch (const std::exception& e) {
        throw JsonError(std::string("designs: bad noc payload: ") + e.what());
      }
    }
    return out;
  }
  throw JsonError("designs: unknown kind '" + kind + "'");
}

// ---------------------------------------------------------------- report
// The one RunReport encoder. It streams text without building a Json tree,
// and writes the bytes dump() would write for the same fields: keys in
// sorted order, doubles as hexfloat strings, strings escaped by
// util::append_json_string. tests/reference_report_json.hpp keeps the
// tree-building encoder this replaced, as the oracle for those bytes.

/// A double as an exact_number() string. Hexfloat text never needs escaping.
void append_exact(std::string& out, double value) {
  out += '"';
  out += util::hexfloat(value);
  out += '"';
}

/// `[item,item,...]`, each item written by `append_item`.
template <typename Range, typename AppendItem>
void append_array(std::string& out, const Range& items,
                  AppendItem&& append_item) {
  out += '[';
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += ',';
    first = false;
    append_item(item);
  }
  out += ']';
}

void append_row(std::string& out, const std::vector<double>& row) {
  append_array(out, row, [&](double v) { append_exact(out, v); });
}

void append_rows(std::string& out,
                 const std::vector<moo::ObjectiveVector>& rows) {
  append_array(out, rows,
               [&](const moo::ObjectiveVector& row) { append_row(out, row); });
}

/// Other design types write kind "none" and drop the payload.
void append_designs(std::string& out, const std::vector<AnyDesign>& designs) {
  const std::type_info& t =
      designs.empty() ? typeid(void) : designs.front().type();
  if (t == typeid(std::vector<double>)) {
    out += "{\"kind\":\"real\",\"values\":";
    append_array(out, designs, [&](const AnyDesign& d) {
      append_row(out, d.as<std::vector<double>>());
    });
  } else if (t == typeid(std::vector<std::uint8_t>)) {
    out += "{\"kind\":\"binary\",\"values\":";
    append_array(out, designs, [&](const AnyDesign& d) {
      append_array(out, d.as<std::vector<std::uint8_t>>(),
                   [&](unsigned x) { out += util::dec(x); });
    });
  } else if (t == typeid(noc::NocDesign)) {
    out += "{\"kind\":\"noc\",\"values\":";
    append_array(out, designs, [&](const AnyDesign& d) {
      util::append_json_string(out,
                               noc::design_to_string(d.as<noc::NocDesign>()));
    });
  } else {
    out += "{\"kind\":\"none\",\"values\":[]";
  }
  out += '}';
}

void append_bool(std::string& out, bool value) {
  out += value ? "true" : "false";
}

}  // namespace

Json request_to_json(const RunRequest& request) {
  Json problem_options = Json::object();
  problem_options.set("objectives", request.problem_options.num_objectives)
      .set("variables", request.problem_options.num_variables)
      .set("seed", request.problem_options.seed)
      .set("app", request.problem_options.app)
      .set("small_platform", request.problem_options.small_platform);

  Json options = Json::object();
  options.set("evals", request.options.max_evaluations)
      .set("seconds", util::exact_number(request.options.max_seconds))
      .set("snapshot", request.options.snapshot_interval)
      .set("seed", request.options.seed)
      .set("pop", request.options.population_size)
      .set("n_local", request.options.n_local)
      .set("knobs", knobs_to_json(request.options.knobs.values()));

  Json out = Json::object();
  out.set("problem", request.problem)
      .set("problem_options", std::move(problem_options))
      .set("algorithm", request.algorithm)
      .set("options", std::move(options))
      .set("need_designs", request.need_designs)
      .set("label", request.label)
      .set("trace", request.trace_id)
      .set("checkpoint", request.checkpoint);
  // The resume payload only when present: most requests carry none, and an
  // absent key keeps pre-checkpoint wire peers byte-compatible.
  if (request.resume != nullptr) {
    out.set("resume", snapshot_to_json(*request.resume));
  }
  return out;
}

RunRequest request_from_json(const Json& json) {
  RunRequest request;
  read_string(json, "problem", request.problem);
  read_string(json, "algorithm", request.algorithm);
  if (request.problem.empty()) {
    throw JsonError("request: missing or empty 'problem'");
  }
  if (request.algorithm.empty()) {
    throw JsonError("request: missing or empty 'algorithm'");
  }
  if (const Json* po = json.find("problem_options")) {
    read_size(*po, "objectives", request.problem_options.num_objectives);
    read_size(*po, "variables", request.problem_options.num_variables);
    read_u64(*po, "seed", request.problem_options.seed);
    read_string(*po, "app", request.problem_options.app);
    read_bool(*po, "small_platform", request.problem_options.small_platform);
  }
  if (const Json* ro = json.find("options")) {
    read_size(*ro, "evals", request.options.max_evaluations);
    read_exact(*ro, "seconds", request.options.max_seconds);
    read_size(*ro, "snapshot", request.options.snapshot_interval);
    read_u64(*ro, "seed", request.options.seed);
    read_size(*ro, "pop", request.options.population_size);
    read_size(*ro, "n_local", request.options.n_local);
    if (const Json* knobs = ro->find("knobs")) {
      for (const auto& [name, value] : knobs_from_json(*knobs)) {
        request.options.knobs.set(name, value);
      }
    }
  }
  read_bool(json, "need_designs", request.need_designs);
  read_string(json, "label", request.label);
  // Absent on pre-telemetry wire peers: the empty default stands.
  read_string(json, "trace", request.trace_id);
  // Absent on pre-checkpoint wire peers: both defaults stand. A resume
  // payload is validated strictly (shape, salt, checksum) — a request
  // carrying garbage is rejected whole rather than silently run fresh, so
  // a corrupting middlebox cannot hide.
  read_bool(json, "checkpoint", request.checkpoint);
  if (const Json* resume = json.find("resume")) {
    request.resume =
        std::make_shared<const RunSnapshot>(snapshot_from_json(*resume));
  }
  return request;
}

void append_report_json(std::string& out, const RunReport& report) {
  out += "{\"algorithm\":";
  util::append_json_string(out, report.algorithm);
  out += ",\"designs\":";
  append_designs(out, report.final_designs);
  out += ",\"evaluations\":";
  out += util::dec(report.evaluations);
  out += ",\"final_front\":";
  append_rows(out, report.final_front);
  out += ",\"final_objectives\":";
  append_rows(out, report.final_objectives);

  const RunProvenance& p = report.provenance;
  out += ",\"provenance\":{\"algorithm_key\":";
  util::append_json_string(out, p.algorithm_key);
  out += ",\"cache_hit\":";
  append_bool(out, p.cache_hit);
  out += ",\"cache_key\":";
  util::append_json_string(out, p.cache_key);
  out += ",\"cancelled\":";
  append_bool(out, p.cancelled);
  out += ",\"knobs\":{";
  bool first = true;
  for (const auto& [name, value] : p.knobs) {
    if (!first) out += ',';
    first = false;
    util::append_json_string(out, name);
    out += ':';
    append_exact(out, value);
  }
  out += "},\"priority\":";
  util::append_json_string(out, p.priority);
  out += ",\"problem\":";
  util::append_json_string(out, p.problem);
  out += ",\"seed\":";
  out += util::dec(p.seed);
  out += ",\"trace\":";
  util::append_json_string(out, p.trace_id);

  out += "},\"seconds\":";
  append_exact(out, report.seconds);
  out += ",\"snapshots\":";
  append_array(out, report.snapshots, [&](const core::ArchiveSnapshot& s) {
    out += "{\"evaluations\":";
    out += util::dec(s.evaluations);
    out += ",\"front\":";
    append_rows(out, s.front);
    out += ",\"seconds\":";
    append_exact(out, s.seconds);
    out += '}';
  });
  out += '}';
}

RunReport report_from_json(const Json& json) {
  RunReport report;
  read_string(json, "algorithm", report.algorithm);
  if (const Json* snapshots = json.find("snapshots")) {
    report.snapshots.reserve(snapshots->as_array().size());
    for (const auto& s : snapshots->as_array()) {
      core::ArchiveSnapshot snapshot;
      read_size(s, "evaluations", snapshot.evaluations);
      read_exact(s, "seconds", snapshot.seconds);
      if (const Json* front = s.find("front")) {
        snapshot.front = rows_from_json(*front);
      }
      report.snapshots.push_back(std::move(snapshot));
    }
  }
  if (const Json* front = json.find("final_front")) {
    report.final_front = rows_from_json(*front);
  }
  if (const Json* objectives = json.find("final_objectives")) {
    report.final_objectives = rows_from_json(*objectives);
  }
  if (const Json* designs = json.find("designs")) {
    report.final_designs = designs_from_json(*designs);
  }
  read_size(json, "evaluations", report.evaluations);
  read_exact(json, "seconds", report.seconds);
  if (const Json* provenance = json.find("provenance")) {
    RunProvenance& p = report.provenance;
    read_string(*provenance, "problem", p.problem);
    read_string(*provenance, "algorithm_key", p.algorithm_key);
    read_u64(*provenance, "seed", p.seed);
    if (const Json* knobs = provenance->find("knobs")) {
      p.knobs = knobs_from_json(*knobs);
    }
    read_string(*provenance, "cache_key", p.cache_key);
    read_bool(*provenance, "cache_hit", p.cache_hit);
    read_bool(*provenance, "cancelled", p.cancelled);
    // Absent on pre-scheduler wire peers: the default ("normal") stands.
    read_string(*provenance, "priority", p.priority);
    // Absent on pre-telemetry wire peers: the empty default stands.
    read_string(*provenance, "trace", p.trace_id);
  }
  return report;
}

}  // namespace moela::api
