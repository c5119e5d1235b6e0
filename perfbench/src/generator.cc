#include "generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <sstream>

namespace perfbench {

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9e3779b97f4a7c15ull ^ (stream + 0x632be59bd9b4e019ull)) {
  next();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

namespace {

const std::uint64_t kL1Sizes[] = {4096, 8192, 16384, 32768, 65536};
const std::uint64_t kL2Sizes[] = {262144, 524288, 1048576, 2097152, 4194304};
const char* const kAssoc[] = {"1", "2", "4", "8", "\"full\""};
const int kBanks[] = {1, 2, 4, 8};
const int kNodes[] = {90, 65, 45, 32, 22};
const char* const kSchemes[] = {"I", "II", "III"};

/// Shortest decimal that keeps `digits` significant digits.
std::string num(double v, int digits) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string target(bool l2, std::uint64_t size) {
  return std::string("\"target\":{\"level\":\"") + (l2 ? "l2" : "l1") +
         "\",\"size_bytes\":" + std::to_string(size) + "}";
}

std::string organization(std::size_t i) {
  return std::string(",\"organization\":{\"associativity\":") + kAssoc[i % 5] +
         ",\"banks\":" + std::to_string(kBanks[(i / 5) % 4]) + "}";
}

/// A value in stratum `i % strata` of [lo, hi), jittered by the seed.
double stratified(std::size_t i, std::size_t strata, double lo, double hi,
                  Rng& rng) {
  const double u = (static_cast<double>(i % strata) + rng.uniform()) /
                   static_cast<double>(strata);
  return lo + (hi - lo) * u;
}

/// Body (everything after the id) of the i-th distinct eval line.  Every
/// category (level, size, organization, node) is a function of `i` alone;
/// the seed only jitters the knob pair inside its stratum.
std::string eval_body(std::size_t i, Rng& rng) {
  const bool l2 = i % 2 == 1;
  const std::uint64_t size = l2 ? kL2Sizes[(i / 2) % 5] : kL1Sizes[(i / 2) % 5];
  std::string body =
      "\"kind\":\"eval\"," + target(l2, size) + ",\"knobs\":{\"vth_v\":" +
      num(stratified(i, 7, 0.2, 0.5, rng), 6) +
      ",\"tox_a\":" + num(stratified(i / 7, 5, 10.0, 14.0, rng), 6) + "}";
  if ((i / 10) % 2 == 1) body += organization(i / 20);
  if ((i / 3) % 2 == 1) body += ",\"node_nm\":" + std::to_string(kNodes[(i / 6) % 5]);
  return body;
}

/// Body of the i-th distinct optimize line (same stratification; the seed
/// jitters the delay target and the gating budget).
std::string optimize_body(std::size_t i, Rng& rng) {
  const bool l2 = i % 2 == 1;
  const std::uint64_t size = l2 ? kL2Sizes[(i / 2) % 5] : kL1Sizes[(i / 2) % 5];
  const double target_ps = l2 ? stratified(i / 3, 7, 3500.0, 7000.0, rng)
                              : stratified(i / 3, 7, 1100.0, 2400.0, rng);
  std::string body = "\"kind\":\"optimize\"," + target(l2, size) +
                     ",\"scheme\":\"" + kSchemes[i % 3] +
                     "\",\"delay\":{\"target_ps\":" + num(target_ps, 7) + "}";
  if ((i / 10) % 2 == 1) body += organization(i / 20);
  if ((i / 4) % 4 == 0) {
    body += ",\"power_gating\":{\"enabled\":true,\"perf_loss_budget\":" +
            num(rng.uniform(0.05, 0.2), 4) + "}";
  }
  if ((i / 5) % 3 == 0) {
    body += ",\"node_nm\":" + std::to_string(kNodes[(i / 15) % 5]);
  }
  return body;
}

std::string line(const std::string& id, const std::string& body) {
  return "{\"schema_version\":4,\"id\":\"" + id + "\"," + body + "}";
}

std::string padded(const char* prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%06zu", prefix, i);
  return buf;
}

/// `n` distinct request bodies, 70% eval and 30% optimize, interleaved
/// in a fixed pattern (7 evals, then 3 optimizes) so that any prefix has
/// the same composition.
std::vector<std::string> distinct_bodies(Rng& rng, std::size_t n) {
  std::vector<std::string> bodies;
  std::set<std::string> seen;
  std::size_t evals = 0, optimizes = 0;
  while (bodies.size() < n) {
    const bool eval = bodies.size() % 10 < 7;
    std::string body = eval ? eval_body(evals++, rng) : optimize_body(optimizes++, rng);
    if (seen.insert(body).second) bodies.push_back(std::move(body));
  }
  return bodies;
}

void shuffle(std::vector<std::string>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

}  // namespace

BatchStream make_batch_stream(std::uint64_t seed, std::size_t lines) {
  Rng rng(seed, 1);
  const auto dups = static_cast<std::size_t>(std::lround(0.1 * static_cast<double>(lines)));
  const std::size_t unique = lines - dups;
  auto bodies = distinct_bodies(rng, unique);
  shuffle(bodies, rng);

  // Positions 1..lines-1 that repeat an earlier line.
  std::vector<std::size_t> positions(lines - 1);
  std::iota(positions.begin(), positions.end(), 1);
  for (std::size_t i = positions.size(); i > 1; --i) {
    std::swap(positions[i - 1], positions[rng.below(i)]);
  }
  std::vector<bool> is_dup(lines, false);
  for (std::size_t d = 0; d < dups; ++d) is_dup[positions[d]] = true;

  BatchStream out;
  std::size_t next_unique = 0;
  for (std::size_t pos = 0; pos < lines; ++pos) {
    const std::string& body =
        is_dup[pos] ? bodies[rng.below(next_unique)] : bodies[next_unique++];
    out.lines.push_back(line(padded("b", pos), body));
  }
  out.jsonl = join_lines(out.lines);

  std::size_t evals = 0, explicit_org = 0, explicit_node = 0, gated = 0;
  for (const auto& b : bodies) {
    evals += b.find("\"kind\":\"eval\"") != std::string::npos;
    explicit_org += b.find("organization") != std::string::npos;
    explicit_node += b.find("node_nm") != std::string::npos;
    gated += b.find("power_gating") != std::string::npos;
  }
  const auto share = [&](std::size_t n) {
    return num(static_cast<double>(n) / static_cast<double>(unique), 4);
  };
  out.properties = {
      {"lines", std::to_string(lines)},
      {"distinct_lines", std::to_string(unique)},
      {"duplicate_share", num(static_cast<double>(dups) / static_cast<double>(lines), 4)},
      {"eval_share_of_distinct", share(evals)},
      {"optimize_share_of_distinct", share(unique - evals)},
      {"explicit_organization_share", share(explicit_org)},
      {"explicit_node_share", share(explicit_node)},
      {"power_gating_share", share(gated)},
      {"sizes", "L1 4-64 KB, L2 256 KB-4 MB, half each, sizes in turn"},
      {"organizations", "associativity 1/2/4/8/full x banks 1/2/4/8"},
      {"nodes_nm", "90/65/45/32/22"},
  };
  return out;
}

namespace {

/// Novel line body: off-lattice eval or in-ladder optimize at a size the
/// default precompute tabulates (16 KB L1, 1 MB L2, default node).
std::string novel_body(Rng& rng) {
  const bool l2 = rng.below(2) == 1;
  const std::uint64_t size = l2 ? 1048576 : 16384;
  if (rng.uniform() < 0.7) {
    return "\"kind\":\"eval\"," + target(l2, size) +
           ",\"knobs\":{\"vth_v\":" + num(rng.uniform(0.21, 0.49), 9) +
           ",\"tox_a\":" + num(rng.uniform(10.1, 13.9), 9) + "}";
  }
  const double target_ps =
      l2 ? rng.uniform(3800.0, 6600.0) : rng.uniform(1300.0, 2300.0);
  return "\"kind\":\"optimize\"," + target(l2, size) + ",\"scheme\":\"" +
         kSchemes[rng.below(3)] + "\",\"delay\":{\"target_ps\":" +
         num(target_ps, 10) + "}";
}

}  // namespace

ServeMix make_serve_mix(std::uint64_t seed, std::size_t hot_keys) {
  ServeMix mix;
  Rng rng(seed, 2);
  const auto bodies = distinct_bodies(rng, hot_keys);
  double total = 0.0;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    mix.hot.push_back(line(padded("h", i), bodies[i]));
    total += 1.0 / std::pow(static_cast<double>(i + 1), mix.zipf_s);
    mix.hot_cdf.push_back(total);
  }
  for (auto& c : mix.hot_cdf) c /= total;
  mix.properties = {
      {"hot_keys", std::to_string(hot_keys)},
      {"hot_share", num(mix.hot_share, 3)},
      {"zipf_s", num(mix.zipf_s, 3)},
      {"hot_mix", "70% eval / 30% optimize, same axes as the batch stream; "
                  "the kind of each Zipf rank is fixed, the seed picks values"},
      {"novel_share", num(1.0 - mix.hot_share, 3)},
      {"novel_mix",
       "70% off-lattice eval / 30% in-ladder optimize at 16 KB L1 and 1 MB L2 "
       "(the tabulated sizes)"},
  };
  return mix;
}

std::string serve_line(const ServeMix& mix, Rng& rng, std::uint64_t client,
                       std::uint64_t k, int* hot_index) {
  if (rng.uniform() < mix.hot_share) {
    const double u = rng.uniform();
    const auto it = std::lower_bound(mix.hot_cdf.begin(), mix.hot_cdf.end(), u);
    const auto idx = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - mix.hot_cdf.begin(),
                                 static_cast<std::ptrdiff_t>(mix.hot.size()) - 1));
    *hot_index = static_cast<int>(idx);
    return mix.hot[idx];
  }
  *hot_index = -1;
  char id[48];
  std::snprintf(id, sizeof id, "n%llu_%llu", static_cast<unsigned long long>(client),
                static_cast<unsigned long long>(k));
  return line(id, novel_body(rng));
}

std::vector<std::string> novel_lines(std::uint64_t seed, std::size_t count) {
  Rng rng(seed, 3);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(line(padded("p", i), novel_body(rng)));
  }
  return out;
}

DesignStudy make_design_study(std::uint64_t seed,
                              const std::vector<std::string>& fixture,
                              int max_menu) {
  Rng rng(seed, 4);
  DesignStudy study;
  // One Figure 2 target keeps a pass at a few seconds while the 3x3 menu
  // still dominates it.  The seed moves only the cheap size-sweep targets;
  // the order stays fixed, because where the 3x3 menu sits in the batch
  // decides when it starts and so the pass time.
  study.menu_target_ps = 1700.0;
  study.l2_sweep_amat_ps = 1700.0 + 50.0 * static_cast<double>(rng.below(5));
  study.l1_sweep_amat_ps = 1900.0 + 50.0 * static_cast<double>(rng.below(5));
  std::vector<std::string> bodies;
  for (int tox = 1; tox <= max_menu; ++tox) {
    for (int vth = 1; vth <= max_menu; ++vth) {
      bodies.push_back("\"kind\":\"tuple_menu\",\"num_tox\":" +
                       std::to_string(tox) + ",\"num_vth\":" +
                       std::to_string(vth) + ",\"delay\":{\"targets_ps\":[" +
                       num(study.menu_target_ps, 6) + "]}");
    }
  }
  for (const char* scheme : {"II", "III"}) {
    bodies.push_back(std::string("\"kind\":\"sweep\",\"sweep\":\"l2_sizes\",") +
                     "\"scheme\":\"" + scheme + "\",\"delay\":{\"target_ps\":" +
                     num(study.l2_sweep_amat_ps, 6) + "}");
  }
  bodies.push_back("\"kind\":\"sweep\",\"sweep\":\"l1_sizes\",\"delay\":{"
                   "\"target_ps\":" + num(study.l1_sweep_amat_ps, 6) + "}");
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    study.lines.push_back(line(padded("s", i), bodies[i]));
  }
  for (const auto& f : fixture) study.lines.push_back(f);
  study.jsonl = join_lines(study.lines);
  study.properties = {
      {"menu_cardinalities", "1-" + std::to_string(max_menu) + " Tox x 1-" +
                                 std::to_string(max_menu) + " Vth"},
      {"menu_targets_ps", num(study.menu_target_ps, 6)},
      {"l2_sweep_amat_ps", num(study.l2_sweep_amat_ps, 6)},
      {"l1_sweep_amat_ps", num(study.l1_sweep_amat_ps, 6)},
      {"sweeps", "l2_sizes scheme II and III, l1_sizes"},
      {"fixture_lines", std::to_string(fixture.size()) +
                            " (tests/data/batch_requests.jsonl r097-r099)"},
  };
  return study;
}

}  // namespace perfbench
