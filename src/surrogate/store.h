// SurrogateStore — the read side of the surrogate serving tier.
//
// A store loads the one table segment matching the service's library
// fingerprint at Service::create time and answers covered eval/optimize
// requests in microseconds: an O(1) keyed table lookup plus bilinear
// interpolation (eval) or a ladder binary search (optimize).  Everything a
// request needs beyond what a table covers — other sizes/nodes, explicit
// organizations, power gating, out-of-lattice knobs or targets — is simply
// "not covered": lookups return nullopt and the service falls back to the
// exact engine.  Robustness mirrors DiskCache: a missing directory or
// segment and any corrupt line degrade coverage, never answers.
//
// Thread safety: a store is immutable after open(); concurrent lookups
// need no synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nanocache/responses.h"
#include "nanocache/types.h"
#include "surrogate/tables.h"
#include "util/interp.h"

namespace nanocache::surrogate {

/// A served eval answer plus its certified error bounds.
struct EvalAnswer {
  api::EvalResponse response;
  api::SurrogateErrorBounds bounds;
};

/// A served optimize answer plus its certified error bounds (access time
/// and dynamic energy of the served design are exact, so those bounds are
/// always 0).
struct OptimizeAnswer {
  api::OptimizeResponse response;
  api::SurrogateErrorBounds bounds;
};

class SurrogateStore {
 public:
  /// Load the segment for `fingerprint` inside `dir`.  A missing directory
  /// or segment yields an empty store (exact fallback, not an error); a
  /// `dir` that exists but is not a directory throws Error(kIo).  Corrupt
  /// lines and fingerprint-mismatched segments are dropped and counted
  /// (api.surrogate.corrupt_lines / api.surrogate.segment_rejects).
  static std::unique_ptr<SurrogateStore> open(const std::string& dir,
                                              const std::string& fingerprint);

  std::optional<EvalAnswer> lookup_eval(api::Level level,
                                        std::uint64_t size_bytes, int node_nm,
                                        const api::Knobs& knobs) const;

  std::optional<OptimizeAnswer> lookup_optimize(api::Level level,
                                                std::uint64_t size_bytes,
                                                int node_nm,
                                                api::SchemeId scheme,
                                                double target_ps) const;

  std::size_t eval_tables() const { return evals_.size(); }
  std::size_t optimize_tables() const { return optimizes_.size(); }
  bool loaded() const { return !evals_.empty() || !optimizes_.empty(); }

  const std::string& fingerprint() const { return fingerprint_; }
  /// The segment's precompute stamp (caller-supplied, not wall-clock).
  const std::string& stamp() const { return stamp_; }
  /// Content hash over the accepted table lines; the service folds it into
  /// the disk-cache fingerprint so surrogate-served and exact-only runs
  /// never share cache entries.
  const std::string& content_checksum() const { return content_checksum_; }

  /// Coverage summary for the capabilities response.
  std::vector<std::uint64_t> covered_sizes() const;
  std::vector<int> covered_nodes() const;
  std::vector<std::string> covered_schemes() const;
  /// Worst certified per-answer bound across all loaded tables.
  api::SurrogateErrorBounds worst_bounds() const { return worst_bounds_; }

 private:
  SurrogateStore() = default;
  void index_tables();

  struct EvalEntry {
    EvalTable table;
    std::unique_ptr<math::BilinearGrid> grid;
  };

  std::string fingerprint_;
  std::string stamp_;
  std::string content_checksum_;
  api::SurrogateErrorBounds worst_bounds_{};
  /// Keyed "level|size|node" and "level|size|node|scheme".
  std::map<std::string, EvalEntry> evals_;
  std::map<std::string, OptimizeTable> optimizes_;
};

}  // namespace nanocache::surrogate
