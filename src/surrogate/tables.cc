#include "surrogate/tables.h"

#include <filesystem>
#include <utility>

#include "util/error.h"
#include "util/json.h"

namespace nanocache::surrogate {

namespace {

std::string bound_model_json(const BoundModel& bound) {
  return "{\"scale\":" + json::format_double(bound.scale) +
         ",\"floor\":" + json::format_double(bound.floor) + "}";
}

BoundModel parse_bound_model(const json::ValuePtr& value) {
  NC_REQUIRE(value && value->is_object(), "bound model must be an object");
  BoundModel bound;
  const auto scale = value->get("scale");
  const auto floor = value->get("floor");
  NC_REQUIRE(scale && floor, "bound model needs scale and floor");
  bound.scale = scale->as_double();
  bound.floor = floor->as_double();
  return bound;
}

std::vector<double> parse_double_array(const json::ValuePtr& value,
                                       const char* what) {
  NC_REQUIRE(value && value->is_array(),
             std::string("expected array for ") + what);
  std::vector<double> out;
  out.reserve(value->as_array().size());
  for (const auto& v : value->as_array()) out.push_back(v->as_double());
  return out;
}

json::ValuePtr require_field(const json::ValuePtr& root, const char* key) {
  auto v = root->get(key);
  NC_REQUIRE(v != nullptr, std::string("surrogate table missing '") + key +
                               "' field");
  return v;
}

void require_axis(const std::vector<double>& axis, const char* what) {
  NC_REQUIRE(axis.size() >= 2,
             std::string("surrogate table axis '") + what +
                 "' needs >= 2 points");
  for (std::size_t i = 1; i < axis.size(); ++i) {
    NC_REQUIRE(axis[i] > axis[i - 1],
               std::string("surrogate table axis '") + what +
                   "' must be strictly increasing");
  }
}

EvalTable parse_eval_table(const json::ValuePtr& root) {
  EvalTable t;
  const std::string& level = require_field(root, "level")->as_string();
  t.level = require_known(api::level_from_name(level), "level", level);
  t.size_bytes = require_field(root, "size_bytes")->as_uint();
  t.node_nm = static_cast<int>(require_field(root, "node_nm")->as_int());
  t.organization = require_field(root, "organization")->as_string();
  for (const auto& c : require_field(root, "components")->as_array()) {
    t.components.push_back(c->as_string());
  }
  NC_REQUIRE(!t.components.empty(), "surrogate eval table has no components");
  t.vth_v = parse_double_array(require_field(root, "vth_v"), "vth_v");
  t.tox_a = parse_double_array(require_field(root, "tox_a"), "tox_a");
  require_axis(t.vth_v, "vth_v");
  require_axis(t.tox_a, "tox_a");
  t.values = parse_double_array(require_field(root, "values"), "values");
  NC_REQUIRE(t.values.size() ==
                 t.vth_v.size() * t.tox_a.size() * t.values_per_point(),
             "surrogate eval table value count mismatch");
  const auto bounds = require_field(root, "bounds");
  t.bound_leakage = parse_bound_model(bounds->get("leakage_mw"));
  t.bound_access = parse_bound_model(bounds->get("access_time_ps"));
  t.bound_dynamic = parse_bound_model(bounds->get("dynamic_pj"));
  return t;
}

OptimizeTable parse_optimize_table(const json::ValuePtr& root) {
  OptimizeTable t;
  const std::string& level = require_field(root, "level")->as_string();
  t.level = require_known(api::level_from_name(level), "level", level);
  t.size_bytes = require_field(root, "size_bytes")->as_uint();
  t.node_nm = static_cast<int>(require_field(root, "node_nm")->as_int());
  const std::string& scheme = require_field(root, "scheme")->as_string();
  t.scheme = require_known(api::scheme_id_from_name(scheme), "scheme", scheme);
  for (const auto& rv : require_field(root, "rungs")->as_array()) {
    OptimizeRung rung;
    rung.target_ps = require_field(rv, "target_ps")->as_double();
    rung.leakage_mw = require_field(rv, "leakage_mw")->as_double();
    rung.access_time_ps = require_field(rv, "access_time_ps")->as_double();
    rung.dynamic_pj = require_field(rv, "dynamic_pj")->as_double();
    for (const auto& av : require_field(rv, "assignment")->as_array()) {
      api::ComponentKnobs knobs;
      knobs.component = require_field(av, "component")->as_string();
      knobs.knobs.vth_v = require_field(av, "vth_v")->as_double();
      knobs.knobs.tox_a = require_field(av, "tox_a")->as_double();
      rung.assignment.push_back(std::move(knobs));
    }
    t.rungs.push_back(std::move(rung));
  }
  NC_REQUIRE(!t.rungs.empty(), "surrogate optimize table has no rungs");
  for (std::size_t i = 1; i < t.rungs.size(); ++i) {
    NC_REQUIRE(t.rungs[i].target_ps > t.rungs[i - 1].target_ps,
               "surrogate optimize ladder must increase");
  }
  return t;
}

}  // namespace

std::string eval_table_json(const EvalTable& table) {
  std::string out = "{\"kind\":\"eval\"";
  out += ",\"level\":" + json::quote(api::level_name(table.level));
  out += ",\"size_bytes\":" + std::to_string(table.size_bytes);
  out += ",\"node_nm\":" + std::to_string(table.node_nm);
  out += ",\"organization\":" + json::quote(table.organization);
  out += ",\"components\":" + json::string_array(table.components);
  out += ",\"vth_v\":" + json::double_array(table.vth_v);
  out += ",\"tox_a\":" + json::double_array(table.tox_a);
  out += ",\"values\":" + json::double_array(table.values);
  out += ",\"bounds\":{\"leakage_mw\":" + bound_model_json(table.bound_leakage);
  out += ",\"access_time_ps\":" + bound_model_json(table.bound_access);
  out += ",\"dynamic_pj\":" + bound_model_json(table.bound_dynamic);
  out += "}}";
  return out;
}

std::string optimize_table_json(const OptimizeTable& table) {
  std::string out = "{\"kind\":\"optimize\"";
  out += ",\"level\":" + json::quote(api::level_name(table.level));
  out += ",\"size_bytes\":" + std::to_string(table.size_bytes);
  out += ",\"node_nm\":" + std::to_string(table.node_nm);
  out += ",\"scheme\":" + json::quote(api::scheme_id_name(table.scheme));
  out += ",\"rungs\":[";
  for (std::size_t i = 0; i < table.rungs.size(); ++i) {
    const auto& rung = table.rungs[i];
    if (i != 0) out += ',';
    out += "{\"target_ps\":" + json::format_double(rung.target_ps);
    out += ",\"leakage_mw\":" + json::format_double(rung.leakage_mw);
    out += ",\"access_time_ps\":" + json::format_double(rung.access_time_ps);
    out += ",\"dynamic_pj\":" + json::format_double(rung.dynamic_pj);
    out += ",\"assignment\":[";
    for (std::size_t a = 0; a < rung.assignment.size(); ++a) {
      const auto& knobs = rung.assignment[a];
      if (a != 0) out += ',';
      out += "{\"component\":" + json::quote(knobs.component);
      out += ",\"vth_v\":" + json::format_double(knobs.knobs.vth_v);
      out += ",\"tox_a\":" + json::format_double(knobs.knobs.tox_a);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

bool parse_table_json(const std::string& text, EvalTable* eval,
                      OptimizeTable* optimize) {
  const auto root = json::parse(text);
  NC_REQUIRE(root->is_object(), "surrogate table line must be an object");
  const std::string kind = require_field(root, "kind")->as_string();
  if (kind == "eval") {
    *eval = parse_eval_table(root);
    return true;
  }
  if (kind == "optimize") {
    *optimize = parse_optimize_table(root);
    return false;
  }
  throw Error(ErrorCategory::kConfig,
              "unknown surrogate table kind '" + kind + "'");
}

const segment::Format kSegmentFormat{"nanocache-surrogate",
                                     "nanocache_surrogate", {"table"}};

std::string write_segment(const std::string& dir,
                          const std::string& fingerprint,
                          const std::string& stamp,
                          const std::vector<EvalTable>& evals,
                          const std::vector<OptimizeTable>& optimizes) {
  NC_REQUIRE(!dir.empty(), "surrogate directory must be non-empty");
  const std::string path = segment::path(dir, kSegmentFormat, fingerprint);
  const std::string tmp = path + ".tmp";
  {
    const auto out = segment::Appender::create(tmp, kSegmentFormat,
                                               fingerprint, {{"stamp", stamp}});
    const auto append = [&](const std::string& table) {
      NC_REQUIRE_IO(out->append({table}),
                    "failed writing surrogate segment '" + tmp + "'");
    };
    for (const auto& t : evals) append(eval_table_json(t));
    for (const auto& t : optimizes) append(optimize_table_json(t));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  NC_REQUIRE_IO(!ec, "cannot finalize surrogate segment '" + path +
                         "': " + ec.message());
  return path;
}

}  // namespace nanocache::surrogate
