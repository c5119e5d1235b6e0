// Dominance-pruned single-cache assignment search: the one engine behind
// opt::optimize_single_cache, for the paper's four-component space and the
// split-tag / power-gated design space alike.
//
// Three layers, each provably argmin-preserving (docs/MODELING.md §10):
//  1. Per-component Pareto pre-filter: any (Vth,Tox) grid point dominated
//     in both delay and leakage by another point of the same component can
//     never appear in an optimum, because both objectives add monotonically
//     across components.
//  2. Frontier-merge composition: partial assignments are combined
//     component-by-component, keeping only the (delay, leakage) staircase
//     after each merge — the same left-fold the exhaustive DP performs, so
//     every floating-point sum is formed in the identical association.
//  3. Branch-and-bound: partial states whose minimum completion delay
//     (accumulated in DP order) already exceeds the constraint are cut, and
//     the final scan skips frontier states that cannot beat the incumbent
//     even with the minimum-leakage tail.
//
// The engine reproduces the exhaustive reference's (opt::optimize_exhaustive)
// grid-index tie-breaks, so results are byte-identical — the one
// theoretical exception (a strict per-component inequality collapsing to an
// exactly equal rounded sum, which would need sub-ULP spacing the physical
// models never produce) is documented in docs/MODELING.md and guarded by
// differential tests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "opt/outcome.h"
#include "opt/schemes.h"

namespace nanocache::opt {

/// Minimize leakage subject to access_time <= delay_constraint_s over
/// `space`; infeasible outcomes carry the fastest achievable time.  Throws
/// Error(kConfig) unless delay_constraint_s > 0 (NaN included).  Unlike
/// optimize_single_cache it does not count towards opt.optimize_calls.
OptOutcome<SchemeResult> optimize_single_cache_pruned(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    double delay_constraint_s, const OptSpace& space = OptSpace::base());

namespace detail {

/// Shared search-effort counters.  `evaluated` counts candidate pair
/// states actually materialized (products formed and compared);
/// `skipped` counts the states a nested product loop over the unpruned
/// option tables would have formed for the same partial sets but the
/// pruned engine never touched.
void count_combos_evaluated(std::size_t n);
void count_combos_skipped(std::size_t n);

/// The option tables a scheme chooses from, one per knob block: each
/// component of the space (Scheme I), the array and periphery blocks
/// (Scheme II), or the whole cache (Scheme III), gating variants
/// included.
std::vector<std::vector<ComponentOption>> scheme_tables(
    const ComponentEvaluator& eval, const OptSpace& space, Scheme scheme,
    const std::vector<tech::DeviceKnobs>& pairs);

/// A choice of one option from each of the first block tables, with the
/// delay and leakage sums formed left to right.  Dynamic energy plays no
/// part in the search; scheme_result folds it for the winner alone.
/// `choice` is sized 8 rather than kMaxComponents so the state is 32 bytes
/// with no padding: the merges copy it whole, and the padded 28-byte
/// layout made the Scheme I search about 10% slower.
struct PartialCombo {
  double delay_s = 0.0;
  double leakage_w = 0.0;
  std::array<std::uint16_t, 8> choice{};
};
static_assert(cachemodel::kMaxComponents <= 8 && sizeof(PartialCombo) == 32);

/// Extend every partial state by every option of block table `index`, in
/// (state, option) order.
std::vector<PartialCombo> extend_combos(
    const std::vector<PartialCombo>& partial,
    const std::vector<ComponentOption>& options, std::size_t index);

/// One DP step: extend_combos, counted as evaluated, then reduced to its
/// (delay, leakage) Pareto front.  A dominated partial state can never
/// become optimal because both objectives add monotonically.
std::vector<PartialCombo> merge_combos(
    const std::vector<PartialCombo>& partial,
    const std::vector<ComponentOption>& options, std::size_t index);

/// The one rule every search uses to turn a combo over `tables` into a
/// result.  Dynamic energy is the left fold of the chosen options' values
/// in block order.  Scheme I sets each component's own pair; Scheme II is
/// ComponentAssignment::split(array, periphery) and Scheme III the uniform
/// assignment, so the tag-array and comparator slots follow the array and
/// periphery pairs on every space.  Gating flags are set per component of
/// the space from the option its block chose.
SchemeResult scheme_result(
    Scheme scheme, const OptSpace& space,
    const std::vector<std::vector<ComponentOption>>& tables,
    const PartialCombo& combo);

/// The infeasibility diagnosis every search returns.
OptOutcome<SchemeResult> infeasible_delay(double delay_constraint_s,
                                          double fastest_s, Scheme scheme);

}  // namespace detail

}  // namespace nanocache::opt
