#include "surrogate/store.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "util/error.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace nanocache::surrogate {

namespace {

struct StoreCounters {
  metrics::Counter& tables;
  metrics::Counter& corrupt;
  metrics::Counter& rejects;
};

StoreCounters& store_counters() {
  static auto& registry = metrics::Registry::instance();
  static StoreCounters counters{
      registry.counter("api.surrogate.tables"),
      registry.counter("api.surrogate.corrupt_lines"),
      registry.counter("api.surrogate.segment_rejects")};
  return counters;
}

std::string eval_key(api::Level level, std::uint64_t size_bytes,
                     int node_nm) {
  return std::string(api::level_name(level)) + '|' +
         std::to_string(size_bytes) + '|' + std::to_string(node_nm);
}

std::string optimize_key(api::Level level, std::uint64_t size_bytes,
                         int node_nm, api::SchemeId scheme) {
  return eval_key(level, size_bytes, node_nm) + '|' +
         api::scheme_id_name(scheme);
}

double cell_spread(const EvalTable& table, const math::BilinearGrid::Cell& c,
                   std::size_t metric) {
  const double v00 = table.values[table.point_index(c.ix, c.iy) + metric];
  const double v10 = table.values[table.point_index(c.ix + 1, c.iy) + metric];
  const double v01 = table.values[table.point_index(c.ix, c.iy + 1) + metric];
  const double v11 =
      table.values[table.point_index(c.ix + 1, c.iy + 1) + metric];
  const double lo = std::min(std::min(v00, v10), std::min(v01, v11));
  const double hi = std::max(std::max(v00, v10), std::max(v01, v11));
  return hi - lo;
}

double certified_bound(const BoundModel& model, double spread) {
  return model.scale * spread + model.floor;
}

/// Max spread of `metric` over every cell of the table (the coverage-wide
/// worst case reported by capabilities).
double max_spread(const EvalTable& table, std::size_t metric) {
  double worst = 0.0;
  for (std::size_t iv = 0; iv + 1 < table.vth_v.size(); ++iv) {
    for (std::size_t it = 0; it + 1 < table.tox_a.size(); ++it) {
      math::BilinearGrid::Cell cell;
      cell.ix = iv;
      cell.iy = it;
      worst = std::max(worst, cell_spread(table, cell, metric));
    }
  }
  return worst;
}

}  // namespace

std::unique_ptr<SurrogateStore> SurrogateStore::open(
    const std::string& dir, const std::string& fingerprint) {
  NC_REQUIRE(!dir.empty(), "surrogate directory must be non-empty");
  auto store = std::unique_ptr<SurrogateStore>(new SurrogateStore());
  store->fingerprint_ = fingerprint;
  store->content_checksum_ = fnv1a64_hex("");

  std::error_code ec;
  const auto status = std::filesystem::status(dir, ec);
  if (ec || !std::filesystem::exists(status)) {
    return store;  // no tables yet: exact fallback, not an error
  }
  NC_REQUIRE_IO(std::filesystem::is_directory(status),
                "surrogate path '" + dir + "' is not a directory");
  std::string content;
  const auto read = segment::read(
      segment::path(dir, kSegmentFormat, fingerprint), kSegmentFormat,
      fingerprint, [&](auto& values) {
        const std::string& text = values[0];
        EvalTable eval;
        OptimizeTable optimize;
        if (parse_table_json(text, &eval, &optimize)) {
          EvalEntry e;
          e.grid =
              std::make_unique<math::BilinearGrid>(eval.vth_v, eval.tox_a);
          const std::string key =
              eval_key(eval.level, eval.size_bytes, eval.node_nm);
          e.table = std::move(eval);
          store->evals_[key] = std::move(e);
        } else {
          store->optimizes_[optimize_key(optimize.level, optimize.size_bytes,
                                         optimize.node_nm, optimize.scheme)] =
              std::move(optimize);
        }
        content += text;
        content += '\n';
      });
  if (read.state == segment::State::kMismatch) {
    // A segment written by a different build (or garbage): reject it
    // whole rather than risk serving answers certified against another
    // model.  Never rewritten here — the store is a read-only consumer.
    store_counters().rejects.add(1);
  }
  if (read.state != segment::State::kOk) return store;
  if (const auto stamp = read.header.find("stamp");
      stamp != read.header.end()) {
    store->stamp_ = stamp->second;
  }
  store_counters().corrupt.add(read.corrupt_lines);
  store->content_checksum_ = fnv1a64_hex(content);
  store_counters().tables.add(store->evals_.size() + store->optimizes_.size());
  store->index_tables();
  return store;
}

void SurrogateStore::index_tables() {
  api::SurrogateErrorBounds worst{};
  for (const auto& [key, entry] : evals_) {
    const auto& t = entry.table;
    worst.leakage_mw =
        std::max(worst.leakage_mw,
                 certified_bound(t.bound_leakage, max_spread(t, kLeakageMw)));
    worst.access_time_ps = std::max(
        worst.access_time_ps,
        certified_bound(t.bound_access, max_spread(t, kAccessTimePs)));
    worst.dynamic_pj =
        std::max(worst.dynamic_pj,
                 certified_bound(t.bound_dynamic, max_spread(t, kDynamicPj)));
  }
  for (const auto& [key, t] : optimizes_) {
    for (std::size_t i = 0; i + 1 < t.rungs.size(); ++i) {
      worst.leakage_mw =
          std::max(worst.leakage_mw, std::max(0.0, t.rungs[i].leakage_mw -
                                                       t.rungs[i + 1].leakage_mw));
    }
  }
  worst_bounds_ = worst;
}

std::optional<EvalAnswer> SurrogateStore::lookup_eval(
    api::Level level, std::uint64_t size_bytes, int node_nm,
    const api::Knobs& knobs) const {
  const auto it = evals_.find(eval_key(level, size_bytes, node_nm));
  if (it == evals_.end()) return std::nullopt;
  const EvalEntry& entry = it->second;
  const EvalTable& t = entry.table;
  if (!entry.grid->contains(knobs.vth_v, knobs.tox_a)) return std::nullopt;
  const auto cell = entry.grid->locate(knobs.vth_v, knobs.tox_a);

  const auto value_at = [&](std::size_t metric) {
    return entry.grid->interpolate(
        cell, t.values[t.point_index(cell.ix, cell.iy) + metric],
        t.values[t.point_index(cell.ix + 1, cell.iy) + metric],
        t.values[t.point_index(cell.ix, cell.iy + 1) + metric],
        t.values[t.point_index(cell.ix + 1, cell.iy + 1) + metric]);
  };

  EvalAnswer answer;
  auto& r = answer.response;
  r.organization = t.organization;
  r.access_time_ps = value_at(kAccessTimePs);
  r.leakage_mw = value_at(kLeakageMw);
  r.leakage_sub_mw = value_at(kLeakageSubMw);
  r.leakage_gate_mw = value_at(kLeakageGateMw);
  r.dynamic_pj = value_at(kDynamicPj);
  r.area_um2 = value_at(kAreaUm2);
  r.components.reserve(t.components.size());
  for (std::size_t c = 0; c < t.components.size(); ++c) {
    api::ComponentEval comp;
    comp.component = t.components[c];
    comp.knobs = knobs;
    const std::size_t base = kTotalsPerPoint + c * kPerComponent;
    comp.delay_ps = value_at(base + 0);
    comp.leakage_mw = value_at(base + 1);
    comp.dynamic_pj = value_at(base + 2);
    r.components.push_back(std::move(comp));
  }

  answer.bounds.leakage_mw =
      certified_bound(t.bound_leakage, cell_spread(t, cell, kLeakageMw));
  answer.bounds.access_time_ps =
      certified_bound(t.bound_access, cell_spread(t, cell, kAccessTimePs));
  answer.bounds.dynamic_pj =
      certified_bound(t.bound_dynamic, cell_spread(t, cell, kDynamicPj));
  return answer;
}

std::optional<OptimizeAnswer> SurrogateStore::lookup_optimize(
    api::Level level, std::uint64_t size_bytes, int node_nm,
    api::SchemeId scheme, double target_ps) const {
  const auto it =
      optimizes_.find(optimize_key(level, size_bytes, node_nm, scheme));
  if (it == optimizes_.end()) return std::nullopt;
  const OptimizeTable& t = it->second;
  if (target_ps < t.rungs.front().target_ps ||
      target_ps > t.rungs.back().target_ps) {
    return std::nullopt;  // off the ladder: exact fallback
  }
  // Largest tabulated rung <= target: its design is feasible for the
  // requested target and optimal for a (possibly) tighter one.
  const auto rung_it = std::upper_bound(
      t.rungs.begin(), t.rungs.end(), target_ps,
      [](double v, const OptimizeRung& r) { return v < r.target_ps; });
  const std::size_t idx =
      static_cast<std::size_t>(rung_it - t.rungs.begin()) - 1;
  const OptimizeRung& rung = t.rungs[idx];

  OptimizeAnswer answer;
  auto& result = answer.response.result;
  result.feasible = true;
  result.leakage_mw = rung.leakage_mw;
  result.access_time_ps = rung.access_time_ps;
  result.dynamic_pj = rung.dynamic_pj;
  result.assignment = rung.assignment;

  // Exact at a rung; between rungs the true optimum is bracketed by the
  // neighboring rungs' optima (feasible sets nest), so the served leakage
  // over-estimates by at most the adjacent-rung gap.
  if (target_ps != rung.target_ps && idx + 1 < t.rungs.size()) {
    answer.bounds.leakage_mw =
        std::max(0.0, rung.leakage_mw - t.rungs[idx + 1].leakage_mw);
  }
  return answer;
}

std::vector<std::uint64_t> SurrogateStore::covered_sizes() const {
  std::set<std::uint64_t> sizes;
  for (const auto& [key, entry] : evals_) sizes.insert(entry.table.size_bytes);
  for (const auto& [key, t] : optimizes_) sizes.insert(t.size_bytes);
  return {sizes.begin(), sizes.end()};
}

std::vector<int> SurrogateStore::covered_nodes() const {
  std::set<int> nodes;
  for (const auto& [key, entry] : evals_) nodes.insert(entry.table.node_nm);
  for (const auto& [key, t] : optimizes_) nodes.insert(t.node_nm);
  return {nodes.begin(), nodes.end()};
}

std::vector<std::string> SurrogateStore::covered_schemes() const {
  std::set<std::string> schemes;
  for (const auto& [key, t] : optimizes_) {
    schemes.insert(api::scheme_id_name(t.scheme));
  }
  return {schemes.begin(), schemes.end()};
}

}  // namespace nanocache::surrogate
