// Seeded workload generator.  Everything the library receives is bytes
// produced here from the --seed argument: the same seed gives the same
// bytes.  Composition is stratified (fixed quotas per request category,
// the seed picks the values inside each category and the order), so the
// amount of work a stream asks for varies little between seeds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  double uniform();                       ///< [0, 1)
  double uniform(double lo, double hi);   ///< [lo, hi)
  std::size_t below(std::size_t n);       ///< [0, n)

 private:
  std::uint64_t state_;
};

/// A batch request stream (batch_cold / batch_replay).
struct BatchStream {
  std::vector<std::string> lines;  ///< request lines, no newline
  std::string jsonl;               ///< lines joined, newline-terminated
  std::map<std::string, std::string> properties;
};

/// `lines` request lines: 10% repeat an earlier line under a new id; the
/// distinct ones are 70% eval / 30% optimize over L1/L2 sizes, schemes
/// I/II/III, v3 organizations (associativity 1-8/full, 1-8 banks), nodes
/// 90-22 nm and power gating.
BatchStream make_batch_stream(std::uint64_t seed, std::size_t lines);

/// The serve_mix traffic: a Zipf-weighted hot set plus novel lines that
/// the precomputed surrogate tables cover.
struct ServeMix {
  std::vector<std::string> hot;   ///< hot lines (fixed ids), no newline
  std::vector<double> hot_cdf;    ///< Zipf cumulative weights over `hot`
  double hot_share = 0.8;
  double zipf_s = 1.0;
  std::map<std::string, std::string> properties;
};

ServeMix make_serve_mix(std::uint64_t seed, std::size_t hot_keys);

/// Line `k` of client `client`.  `hot_index` is set to the hot-set index,
/// or -1 for a novel line (an off-lattice eval or an in-ladder optimize at
/// a tabulated size; never repeated within a run).
std::string serve_line(const ServeMix& mix, Rng& rng, std::uint64_t client,
                       std::uint64_t k, int* hot_index);

/// Novel lines only (`count` of them, for layer probes that need
/// surrogate-covered inputs).
std::vector<std::string> novel_lines(std::uint64_t seed, std::size_t count);

/// The design study: tuple_menu at 1-`max_menu` Tox x 1-`max_menu` Vth,
/// L1/L2 size sweeps and the fixture lines `fixture` (appended verbatim).
struct DesignStudy {
  std::vector<std::string> lines;
  std::string jsonl;
  double menu_target_ps = 0.0;
  double l1_sweep_amat_ps = 0.0;
  double l2_sweep_amat_ps = 0.0;
  std::map<std::string, std::string> properties;
};

DesignStudy make_design_study(std::uint64_t seed,
                              const std::vector<std::string>& fixture,
                              int max_menu = 3);

}  // namespace perfbench
