// Test oracle: the tree-building RunReport encoder as it was before
// api::append_report_json replaced it, frozen verbatim apart from its
// namespace and `inline` linkage. It builds a util::Json tree and the
// caller dumps it; the streaming encoder must write exactly those bytes.
// Slow and obviously correct; do not optimize it.
#pragma once

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "api/optimizer.hpp"
#include "noc/design.hpp"
#include "noc/io.hpp"
#include "util/json.hpp"

namespace moela::api::reference {

using util::Json;

inline Json rows_to_json(const std::vector<moo::ObjectiveVector>& rows) {
  Json out = Json::array();
  for (const auto& row : rows) {
    Json json_row = Json::array();
    for (double v : row) json_row.append(util::exact_number(v));
    out.append(std::move(json_row));
  }
  return out;
}

inline Json knobs_to_json(const std::map<std::string, double>& knobs) {
  Json out = Json::object();
  for (const auto& [name, value] : knobs) {
    out.set(name, util::exact_number(value));
  }
  return out;
}

inline Json designs_to_json(const std::vector<AnyDesign>& designs) {
  Json out = Json::object();
  Json payload = Json::array();
  if (designs.empty()) {
    return out.set("kind", "none").set("values", std::move(payload));
  }
  const std::type_info& t = designs.front().type();
  if (t == typeid(std::vector<double>)) {
    for (const auto& d : designs) {
      Json row = Json::array();
      for (double x : d.as<std::vector<double>>()) {
        row.append(util::exact_number(x));
      }
      payload.append(std::move(row));
    }
    return out.set("kind", "real").set("values", std::move(payload));
  }
  if (t == typeid(std::vector<std::uint8_t>)) {
    for (const auto& d : designs) {
      Json row = Json::array();
      for (unsigned x : d.as<std::vector<std::uint8_t>>()) {
        row.append(static_cast<std::uint64_t>(x));
      }
      payload.append(std::move(row));
    }
    return out.set("kind", "binary").set("values", std::move(payload));
  }
  if (t == typeid(noc::NocDesign)) {
    for (const auto& d : designs) {
      std::ostringstream os;
      noc::write_design(os, d.as<noc::NocDesign>());
      payload.append(os.str());
    }
    return out.set("kind", "noc").set("values", std::move(payload));
  }
  return out.set("kind", "none").set("values", std::move(payload));
}

inline Json report_to_json(const RunReport& report) {
  Json snapshots = Json::array();
  for (const auto& s : report.snapshots) {
    Json snapshot = Json::object();
    snapshot.set("evaluations", s.evaluations)
        .set("seconds", util::exact_number(s.seconds))
        .set("front", rows_to_json(s.front));
    snapshots.append(std::move(snapshot));
  }

  const RunProvenance& p = report.provenance;
  Json provenance = Json::object();
  provenance.set("problem", p.problem)
      .set("algorithm_key", p.algorithm_key)
      .set("seed", p.seed)
      .set("knobs", knobs_to_json(p.knobs))
      .set("cache_key", p.cache_key)
      .set("cache_hit", p.cache_hit)
      .set("cancelled", p.cancelled)
      .set("priority", p.priority)
      .set("trace", p.trace_id);

  Json out = Json::object();
  out.set("algorithm", report.algorithm)
      .set("snapshots", std::move(snapshots))
      .set("final_front", rows_to_json(report.final_front))
      .set("final_objectives", rows_to_json(report.final_objectives))
      .set("designs", designs_to_json(report.final_designs))
      .set("evaluations", report.evaluations)
      .set("seconds", util::exact_number(report.seconds))
      .set("provenance", std::move(provenance));
  return out;
}

}  // namespace moela::api::reference
