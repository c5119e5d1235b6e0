// Versioned plain-struct responses of the nanocache public API.
//
// Responses mirror requests one-to-one: Response::kind names the payload
// that is filled in.  Units are the paper's reporting units (pS, mW, pJ,
// um^2).  Infeasibility is data, not an error: an optimize/sweep cell that
// cannot meet its constraint reports feasible=false plus the violated
// constraint, while transport/config failures surface as Response::error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nanocache/requests.h"
#include "nanocache/types.h"
#include "nanocache/version.h"

namespace nanocache::api {

/// Metrics of one cache component at one knob pair.
struct ComponentEval {
  std::string component;  ///< "cell-array", "decoder", ...
  Knobs knobs{};
  double delay_ps = 0.0;
  double leakage_mw = 0.0;
  double dynamic_pj = 0.0;
};

struct EvalResponse {
  std::string organization;  ///< human-readable cache organization
  double access_time_ps = 0.0;
  double leakage_mw = 0.0;
  double leakage_sub_mw = 0.0;   ///< subthreshold share
  double leakage_gate_mw = 0.0;  ///< gate-tunnelling share
  double dynamic_pj = 0.0;
  double area_um2 = 0.0;
  std::vector<ComponentEval> components;  ///< the paper's four components
};

/// Result of one single-cache scheme optimization.  Shared by
/// OptimizeResponse and the sweep rows.
struct OptimizedCache {
  bool feasible = false;
  std::string infeasible_reason;  ///< violated constraint when infeasible
  double leakage_mw = 0.0;
  double access_time_ps = 0.0;
  double dynamic_pj = 0.0;
  std::vector<ComponentKnobs> assignment;  ///< per-component knob choice
};

struct OptimizeResponse {
  OptimizedCache result{};
};

/// One delay target of the scheme-comparison sweep.
struct SchemesRow {
  double delay_target_ps = 0.0;
  OptimizedCache scheme1{};
  OptimizedCache scheme2{};
  OptimizedCache scheme3{};
};

/// One size point of the Section 5 L1/L2 size sweeps.
struct SizeRow {
  std::uint64_t size_bytes = 0;
  bool feasible = false;
  std::string infeasible_reason;
  double miss_rate = 0.0;         ///< local miss rate of the swept level
  double amat_ps = 0.0;           ///< achieved AMAT
  double level_leakage_mw = 0.0;  ///< swept level only
  double total_leakage_mw = 0.0;  ///< both cache levels
  OptimizedCache result{};        ///< swept level's optimized assignment
};

struct SweepResponse {
  SweepKind kind = SweepKind::kSchemes;
  /// Resolved AMAT constraint (size sweeps; 0 for kSchemes).
  double amat_target_ps = 0.0;
  std::vector<SchemesRow> schemes;  ///< kSchemes only
  std::vector<SizeRow> sizes;       ///< size sweeps only
};

/// One optimized two-level system design of the tuple problem.
struct MenuDesign {
  /// The AMAT constraint this design answers (0 on frontier points).
  double amat_target_ps = 0.0;
  bool feasible = false;
  double amat_ps = 0.0;
  double energy_pj = 0.0;  ///< total energy per access
  double leakage_mw = 0.0;
  std::vector<double> tox_menu_a;  ///< chosen process menu
  std::vector<double> vth_menu_v;
  std::vector<ComponentKnobs> l1_assignment;
  std::vector<ComponentKnobs> l2_assignment;
};

struct TupleMenuResponse {
  int num_tox = 0;
  int num_vth = 0;
  std::string label;        ///< e.g. "2 Tox + 3 Vth"
  double min_amat_ps = 0.0; ///< feasibility bound of the menu spec
  std::vector<MenuDesign> targets;   ///< one per requested AMAT target
  std::vector<MenuDesign> frontier;  ///< when include_frontier was set
};

/// What this service build + configuration can do.  Everything here is
/// configuration-derived and cheap; the payload is NOT covered by the
/// thread-count byte-identity contract (the resolved `threads` value
/// reflects the caller's pool configuration by design), so keep
/// capabilities lines out of fixtures that diff across thread counts.
struct CapabilitiesResponse {
  std::vector<int> schema_versions;  ///< accepted request schema versions
  int api_version_major = 0;
  int api_version_minor = 0;

  /// The paper's calibrated knob bounds: grid overrides must stay inside.
  double vth_min_v = 0.0;
  double vth_max_v = 0.0;
  double tox_min_a = 0.0;
  double tox_max_a = 0.0;

  /// The configured knob grid the optimizers search.
  std::vector<double> grid_vth_v;
  std::vector<double> grid_tox_a;

  std::vector<std::string> schemes;  ///< "I", "II", "III"
  std::vector<std::string> sweeps;   ///< "schemes", "l1_sizes", "l2_sizes"

  std::uint64_t l1_size_bytes = 0;  ///< configured default sizes
  std::uint64_t l2_size_bytes = 0;

  int threads = 0;             ///< resolved worker-pool width
  std::string search_mode;     ///< always "pruned" (the only engine)
  bool fitted_models = false;  ///< optimizers use the fitted closed forms
  bool disk_cache = false;     ///< persistent result cache enabled
  std::string cache_dir;       ///< its directory (empty when disabled)

  /// v3 design-space knobs: explicit organization overrides accepted by
  /// eval/optimize requests.
  std::vector<int> organization_associativities;  ///< {1, 2, 4, 8}
  bool organization_fully_associative = false;    ///< "full" accepted
  std::uint32_t organization_max_banks = 0;       ///< power of two <= this

  /// v3 power gating: the build's sleep-state model constants and the
  /// accepted budget range.
  bool power_gating_supported = false;
  double power_gating_sleep_factor = 0.0;  ///< sleep-state leakage multiplier
  double power_gating_wake_factor = 0.0;   ///< wake delay penalty multiplier
  double power_gating_max_budget = 0.0;    ///< max perf_loss_budget

  /// v3 technology menu: selectable `node_nm` values.
  std::vector<int> nodes_nm;

  /// v4 surrogate serving tier: what the loaded table set covers.  All
  /// fields stay at their defaults when no surrogate directory is
  /// configured or no usable tables were found.
  bool surrogate_loaded = false;
  int surrogate_eval_tables = 0;
  int surrogate_optimize_tables = 0;
  /// Library fingerprint the tables were precomputed against (16 hex).
  std::string surrogate_fingerprint;
  /// Caller-supplied precompute stamp (passed to `precompute --stamp`, not
  /// wall-clock, so capabilities stay deterministic).
  std::string surrogate_stamp;
  std::vector<std::uint64_t> surrogate_sizes_bytes;  ///< covered sizes
  std::vector<int> surrogate_nodes_nm;               ///< covered nodes
  std::vector<std::string> surrogate_schemes;        ///< covered schemes
  /// Worst certified per-answer error bound across all loaded tables.
  double surrogate_max_error_leakage_mw = 0.0;
  double surrogate_max_error_access_time_ps = 0.0;
  double surrogate_max_error_dynamic_pj = 0.0;
};

/// v4: which engine produced an eval/optimize answer.
enum class ServedBy {
  kExact,      ///< the structural/fitted model (wire default; omitted)
  kSurrogate,  ///< precomputed table + interpolation, `max_error` certified
};

inline const char* served_by_name(ServedBy s) {
  switch (s) {
    case ServedBy::kExact: return "exact";
    case ServedBy::kSurrogate: return "surrogate";
  }
  return "exact";
}

/// v4: certified absolute error bounds of a surrogate answer, in the
/// paper's reporting units.  The exact engine's answer for the same request
/// is guaranteed to lie within these bounds of the served values
/// (docs/MODELING.md §13 describes the certification).
struct SurrogateErrorBounds {
  double leakage_mw = 0.0;
  double access_time_ps = 0.0;
  double dynamic_pj = 0.0;
};

/// One versioned response.  `ok` distinguishes a served request (payload
/// filled per `kind`) from a failed one (`error` filled).
struct Response {
  int schema_version = kSchemaVersion;
  std::string id;  ///< echo of Request::id (empty when the request had none)
  RequestKind kind = RequestKind::kEval;
  bool ok = false;
  ErrorInfo error{};

  /// v4: which engine served this answer.  kExact serializes as an omitted
  /// field so pre-v4 response bytes are unchanged; kSurrogate adds
  /// `"served_by":"surrogate"` plus the `max_error` bounds.
  ServedBy served_by = ServedBy::kExact;
  SurrogateErrorBounds max_error{};

  EvalResponse eval{};
  OptimizeResponse optimize{};
  SweepResponse sweep{};
  TupleMenuResponse tuple_menu{};
  CapabilitiesResponse capabilities{};
};

/// Batch accounting: how much work the dedup + memoization layers saved.
struct BatchStats {
  std::size_t requests = 0;         ///< input stream length
  std::size_t unique_requests = 0;  ///< structurally distinct requests
  /// Requests answered by copying another request's response (request-level
  /// dedup; deterministic at any thread count).
  std::size_t request_hits = 0;
  /// Sub-evaluation memoization (model evaluations, scheme-optimizer
  /// results) during this batch.  Hit/miss split can vary with thread
  /// scheduling; hits return bitwise-identical values to the miss path, so
  /// responses never depend on it.
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;

  /// Persistent cross-run disk-cache lookups during this batch (both zero
  /// when the service has no cache directory configured).  A disk hit
  /// returns the byte-identical response the original run serialized.
  std::size_t disk_hits = 0;
  std::size_t disk_misses = 0;

  /// Fraction of all lookups (request-level dedup + sub-evaluation memo)
  /// served from cache.
  double hit_rate() const {
    const std::size_t hits = request_hits + memo_hits;
    const std::size_t lookups = requests + memo_hits + memo_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Responses in input order plus the batch accounting.
struct BatchResult {
  std::vector<Response> responses;
  BatchStats stats{};
};

}  // namespace nanocache::api
