// Precomputed answer tables of the surrogate serving tier.
//
// Two table shapes cover the two expensive request kinds:
//
//  * EvalTable — a dense (Vth, Tox) lattice for one (level, size, node)
//    cache, storing every metric an EvalResponse reports (six totals plus
//    delay/leakage/dynamic per component).  Serving bilinearly interpolates
//    inside the containing cell; the certified error bound of an answer is
//    an affine function of the cell's corner spread, `scale * spread +
//    floor`, whose per-metric coefficients the precompute step calibrates
//    against the exact engine on a validation lattice (cell midpoints — the
//    worst case for bilinear interpolation of the smooth, convex response
//    surfaces the paper's Section 3 models produce).
//
//  * OptimizeTable — a ladder of exact optimizer answers over increasing
//    delay targets for one (level, size, node, scheme).  Serving snaps a
//    target T to the largest tabulated rung t_i <= T and returns that
//    rung's exact design: the design is feasible for T (achieved <= t_i <=
//    T) and its leakage over-estimates the true optimum by at most
//    leakage(t_i) - leakage(t_{i+1}), because the optimum at T is bracketed
//    by the two rungs' optima (feasible sets nest as the constraint
//    relaxes).  The bound is rigorous, not sampled; access time and dynamic
//    energy of the served design are exact (bound 0).
//
// Tables serialize to one util/segment.h segment per library fingerprint
// (the format is described there): nanocache-surrogate-<fingerprint>.jsonl
// with one table per entry and the precompute stamp in the header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nanocache/types.h"
#include "util/segment.h"

namespace nanocache::surrogate {

/// Index arithmetic of EvalTable::values: per lattice point, the six
/// totals in this order, then (delay_ps, leakage_mw, dynamic_pj) per
/// component.
enum EvalMetric {
  kAccessTimePs = 0,
  kLeakageMw = 1,
  kLeakageSubMw = 2,
  kLeakageGateMw = 3,
  kDynamicPj = 4,
  kAreaUm2 = 5,
  kTotalsPerPoint = 6,
  kPerComponent = 3,
};

/// Coefficients of one metric's certified bound: `scale * spread + floor`
/// where `spread` is the max-min range of the metric over the containing
/// cell's four corners.
struct BoundModel {
  double scale = 1.0;
  double floor = 0.0;
};

struct EvalTable {
  api::Level level = api::Level::kL1;
  std::uint64_t size_bytes = 0;
  int node_nm = 0;  ///< 0 = the service's configured default technology
  std::string organization;  ///< describe() string echoed into responses
  std::vector<std::string> components;
  std::vector<double> vth_v;  ///< strictly increasing lattice axes
  std::vector<double> tox_a;
  /// Row-major [vth][tox][metric]; metric indexed per EvalMetric then
  /// kPerComponent values per component.
  std::vector<double> values;
  BoundModel bound_leakage{};
  BoundModel bound_access{};
  BoundModel bound_dynamic{};

  std::size_t values_per_point() const {
    return kTotalsPerPoint + kPerComponent * components.size();
  }
  std::size_t point_index(std::size_t iv, std::size_t it) const {
    return (iv * tox_a.size() + it) * values_per_point();
  }
};

/// One exact optimizer answer at one tabulated delay target.
struct OptimizeRung {
  double target_ps = 0.0;
  double leakage_mw = 0.0;
  double access_time_ps = 0.0;
  double dynamic_pj = 0.0;
  std::vector<api::ComponentKnobs> assignment;
};

struct OptimizeTable {
  api::Level level = api::Level::kL1;
  std::uint64_t size_bytes = 0;
  int node_nm = 0;
  api::SchemeId scheme = api::SchemeId::kII;
  /// Strictly increasing in target_ps; every rung feasible.
  std::vector<OptimizeRung> rungs;
};

/// Serialize one table to its canonical single-line JSON (the bytes the
/// segment checksum covers).
std::string eval_table_json(const EvalTable& table);
std::string optimize_table_json(const OptimizeTable& table);

/// Parse a canonical table line back; returns true when it filled `eval`,
/// false when it filled `optimize`.  Throws nanocache::Error(kConfig) on
/// malformed input; the caller (segment loader) treats that as a corrupt
/// line and drops the table.
bool parse_table_json(const std::string& text, EvalTable* eval,
                      OptimizeTable* optimize);

/// The table segment kind, shared by write_segment and SurrogateStore:
/// one "table" field per entry, the precompute stamp in the header.
extern const segment::Format kSegmentFormat;

/// Write a complete segment (header + one checksummed line per table),
/// creating `dir` as needed, into a temporary file renamed into place.
/// Returns the segment's path.  Throws Error(kIo) when the directory or
/// file cannot be written.
std::string write_segment(const std::string& dir,
                          const std::string& fingerprint,
                          const std::string& stamp,
                          const std::vector<EvalTable>& evals,
                          const std::vector<OptimizeTable>& optimizes);

}  // namespace nanocache::surrogate
