#include "api/surrogate_precompute.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "opt/options.h"
#include "surrogate/tables.h"
#include "tech/params.h"
#include "util/error.h"
#include "util/interp.h"

namespace nanocache::api {

namespace {

ErrorCategory to_category(ErrorCode code) {
  switch (code) {
    case ErrorCode::kConfig: return ErrorCategory::kConfig;
    case ErrorCode::kNumericDomain: return ErrorCategory::kNumericDomain;
    case ErrorCode::kIo: return ErrorCategory::kIo;
    case ErrorCode::kInfeasible: return ErrorCategory::kInfeasible;
    case ErrorCode::kInternal: return ErrorCategory::kInternal;
  }
  return ErrorCategory::kInternal;
}

/// Re-raise a failed facade outcome inside the precompute (which reports
/// through exceptions, like the rest of the non-facade code).
template <typename T>
const T& require_ok(const Outcome<T>& out) {
  if (!out) throw Error(to_category(out.error().code), out.error().message);
  return out.value();
}

/// Insert cell midpoints until the axis holds at least `steps` points.
/// The input points always survive, so grid knobs are served bit-exact.
std::vector<double> refine_axis(std::vector<double> axis, int steps) {
  NC_REQUIRE(axis.size() >= 2, "knob grid axis needs at least two points");
  while (static_cast<int>(axis.size()) < steps) {
    std::vector<double> refined;
    refined.reserve(axis.size() * 2 - 1);
    for (std::size_t i = 0; i + 1 < axis.size(); ++i) {
      refined.push_back(axis[i]);
      refined.push_back(0.5 * (axis[i] + axis[i + 1]));
    }
    refined.push_back(axis.back());
    axis = std::move(refined);
  }
  return axis;
}

/// The knob grid a node's requests run against: the service's configured
/// grid for the default node, the paper's Vth ladder crossed with the
/// node's oxide window otherwise (mirroring the service's node explorers).
std::pair<std::vector<double>, std::vector<double>> node_grid(
    const Service& service, int node_nm) {
  if (node_nm == 0) {
    const auto caps = require_ok(service.capabilities({}));
    return {caps.grid_vth_v, caps.grid_tox_a};
  }
  const auto grid = opt::KnobGrid::paper_default();
  return {grid.vth_values, tech::node_tox_grid(tech::node_params(node_nm))};
}

struct ExactEngine {
  const Service& service;
  std::size_t evals = 0;
  std::size_t optimizes = 0;

  EvalResponse eval(Level level, std::uint64_t size_bytes, int node_nm,
                    double vth_v, double tox_a) {
    EvalRequest request;
    request.target = GridSpec{level, size_bytes};
    request.knobs = Knobs{vth_v, tox_a};
    request.node_nm = node_nm;
    request.exactness = Exactness::kExact;
    ++evals;
    return require_ok(service.evaluate(request));
  }

  Outcome<OptimizeResponse> optimize(Level level, std::uint64_t size_bytes,
                                     int node_nm, SchemeId scheme,
                                     double target_ps) {
    OptimizeRequest request;
    request.target = GridSpec{level, size_bytes};
    request.scheme = scheme;
    request.delay = DelayConstraint{target_ps, {}};
    request.node_nm = node_nm;
    request.exactness = Exactness::kExact;
    ++optimizes;
    return service.optimize(request);
  }
};

/// Worst-case calibration of one metric's bound coefficients over every
/// cell: `err <= scale * spread` wherever the cell has spread, `err <=
/// floor` on flat cells, each with a 2x safety margin (the validation
/// lattice samples midpoints only; queries land anywhere in the cell).
struct BoundCalibration {
  double max_ratio = 0.0;      ///< err / spread over cells with spread
  double max_flat_err = 0.0;   ///< err over spread-free cells

  void observe(double err, double spread) {
    if (spread > 0.0) {
      max_ratio = std::max(max_ratio, err / spread);
    } else {
      max_flat_err = std::max(max_flat_err, err);
    }
  }
  surrogate::BoundModel model() const {
    return surrogate::BoundModel{2.0 * std::max(1.0, max_ratio),
                                 2.0 * max_flat_err};
  }
};

surrogate::EvalTable build_eval_table(ExactEngine& engine, Level level,
                                      std::uint64_t size_bytes, int node_nm,
                                      std::vector<double> vth_v,
                                      std::vector<double> tox_a) {
  surrogate::EvalTable table;
  table.level = level;
  table.size_bytes = size_bytes;
  table.node_nm = node_nm;
  table.vth_v = std::move(vth_v);
  table.tox_a = std::move(tox_a);

  for (std::size_t iv = 0; iv < table.vth_v.size(); ++iv) {
    for (std::size_t it = 0; it < table.tox_a.size(); ++it) {
      const auto r = engine.eval(level, size_bytes, node_nm, table.vth_v[iv],
                                 table.tox_a[it]);
      if (table.components.empty()) {
        table.organization = r.organization;
        for (const auto& c : r.components) {
          table.components.push_back(c.component);
        }
      }
      table.values.push_back(r.access_time_ps);
      table.values.push_back(r.leakage_mw);
      table.values.push_back(r.leakage_sub_mw);
      table.values.push_back(r.leakage_gate_mw);
      table.values.push_back(r.dynamic_pj);
      table.values.push_back(r.area_um2);
      for (const auto& c : r.components) {
        table.values.push_back(c.delay_ps);
        table.values.push_back(c.leakage_mw);
        table.values.push_back(c.dynamic_pj);
      }
    }
  }

  // Certify against the exact engine on the validation lattice (every cell
  // midpoint).  Spread and interpolation mirror serving exactly.
  const math::BilinearGrid grid(table.vth_v, table.tox_a);
  const auto corner = [&](std::size_t iv, std::size_t it, std::size_t m) {
    return table.values[table.point_index(iv, it) + m];
  };
  const auto interp_at = [&](const math::BilinearGrid::Cell& cell,
                             std::size_t m) {
    return grid.interpolate(cell, corner(cell.ix, cell.iy, m),
                            corner(cell.ix + 1, cell.iy, m),
                            corner(cell.ix, cell.iy + 1, m),
                            corner(cell.ix + 1, cell.iy + 1, m));
  };
  const auto spread_of = [&](std::size_t iv, std::size_t it, std::size_t m) {
    const double v00 = corner(iv, it, m);
    const double v10 = corner(iv + 1, it, m);
    const double v01 = corner(iv, it + 1, m);
    const double v11 = corner(iv + 1, it + 1, m);
    return std::max(std::max(v00, v10), std::max(v01, v11)) -
           std::min(std::min(v00, v10), std::min(v01, v11));
  };

  BoundCalibration leakage;
  BoundCalibration access;
  BoundCalibration dynamic;
  for (std::size_t iv = 0; iv + 1 < table.vth_v.size(); ++iv) {
    for (std::size_t it = 0; it + 1 < table.tox_a.size(); ++it) {
      const double mid_vth = 0.5 * (table.vth_v[iv] + table.vth_v[iv + 1]);
      const double mid_tox = 0.5 * (table.tox_a[it] + table.tox_a[it + 1]);
      const auto exact =
          engine.eval(level, size_bytes, node_nm, mid_vth, mid_tox);
      const auto cell = grid.locate(mid_vth, mid_tox);
      leakage.observe(
          std::abs(exact.leakage_mw - interp_at(cell, surrogate::kLeakageMw)),
          spread_of(iv, it, surrogate::kLeakageMw));
      access.observe(std::abs(exact.access_time_ps -
                              interp_at(cell, surrogate::kAccessTimePs)),
                     spread_of(iv, it, surrogate::kAccessTimePs));
      dynamic.observe(
          std::abs(exact.dynamic_pj - interp_at(cell, surrogate::kDynamicPj)),
          spread_of(iv, it, surrogate::kDynamicPj));
    }
  }
  table.bound_leakage = leakage.model();
  table.bound_access = access.model();
  table.bound_dynamic = dynamic.model();
  return table;
}

std::vector<surrogate::OptimizeTable> build_optimize_tables(
    ExactEngine& engine, Level level, std::uint64_t size_bytes, int node_nm,
    const std::vector<double>& vth_v, const std::vector<double>& tox_a,
    int target_steps) {
  // The reachable access-time window: the grid's fastest corner (min Vth,
  // min Tox) through the slowest, padded 5% so slack targets stay covered.
  const double t_fast =
      engine.eval(level, size_bytes, node_nm, vth_v.front(), tox_a.front())
          .access_time_ps;
  const double t_slow =
      engine.eval(level, size_bytes, node_nm, vth_v.back(), tox_a.back())
          .access_time_ps;
  const double lo = t_fast;
  const double hi = 1.05 * std::max(t_slow, t_fast);

  std::vector<surrogate::OptimizeTable> tables;
  for (const SchemeId scheme : {SchemeId::kI, SchemeId::kII, SchemeId::kIII}) {
    surrogate::OptimizeTable table;
    table.level = level;
    table.size_bytes = size_bytes;
    table.node_nm = node_nm;
    table.scheme = scheme;
    for (int i = 0; i < target_steps; ++i) {
      const double target_ps =
          lo + (hi - lo) * static_cast<double>(i) /
                   static_cast<double>(target_steps - 1);
      const auto out =
          engine.optimize(level, size_bytes, node_nm, scheme, target_ps);
      // Infeasible rungs (targets below what the scheme can reach) simply
      // shrink the ladder's coverage; they are not precompute failures.
      if (!out || !out.value().result.feasible) continue;
      const auto& result = out.value().result;
      surrogate::OptimizeRung rung;
      rung.target_ps = target_ps;
      rung.leakage_mw = result.leakage_mw;
      rung.access_time_ps = result.access_time_ps;
      rung.dynamic_pj = result.dynamic_pj;
      rung.assignment = result.assignment;
      table.rungs.push_back(std::move(rung));
    }
    // A one-rung ladder covers a single point; not worth a table.
    if (table.rungs.size() >= 2) tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace

PrecomputeSummary precompute_surrogate(const Service& service,
                                       const std::string& out_dir,
                                       const PrecomputeOptions& options) {
  NC_REQUIRE(!out_dir.empty(), "precompute output directory must be set");
  NC_REQUIRE(options.vth_steps >= 2 && options.tox_steps >= 2,
             "lattice steps must be at least 2 per axis");
  NC_REQUIRE(options.target_steps >= 2,
             "target_steps must be at least 2 (a ladder needs two rungs)");
  NC_REQUIRE(!options.nodes.empty(), "nodes must name at least one node");

  std::vector<std::uint64_t> l1_sizes = options.l1_sizes;
  std::vector<std::uint64_t> l2_sizes = options.l2_sizes;
  const auto caps = require_ok(service.capabilities({}));
  if (l1_sizes.empty()) l1_sizes.push_back(caps.l1_size_bytes);
  if (l2_sizes.empty()) l2_sizes.push_back(caps.l2_size_bytes);

  ExactEngine engine{service};
  std::vector<surrogate::EvalTable> evals;
  std::vector<surrogate::OptimizeTable> optimizes;
  for (const int node : options.nodes) {
    const auto [grid_vth, grid_tox] = node_grid(service, node);
    const auto vth = refine_axis(grid_vth, options.vth_steps);
    const auto tox = refine_axis(grid_tox, options.tox_steps);
    const auto tabulate = [&](Level level, std::uint64_t size_bytes) {
      evals.push_back(
          build_eval_table(engine, level, size_bytes, node, vth, tox));
      auto ladders = build_optimize_tables(engine, level, size_bytes, node,
                                           vth, tox, options.target_steps);
      for (auto& t : ladders) optimizes.push_back(std::move(t));
    };
    for (const std::uint64_t size : l1_sizes) tabulate(Level::kL1, size);
    for (const std::uint64_t size : l2_sizes) tabulate(Level::kL2, size);
  }

  const std::string& fingerprint = service.configuration_fingerprint();
  PrecomputeSummary summary;
  summary.fingerprint = fingerprint;
  summary.path = surrogate::write_segment(out_dir, fingerprint, options.stamp,
                                          evals, optimizes);
  summary.eval_tables = evals.size();
  summary.optimize_tables = optimizes.size();
  summary.exact_evals = engine.evals;
  summary.exact_optimizes = engine.optimizes;
  return summary;
}

}  // namespace nanocache::api
