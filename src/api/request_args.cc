#include "api/request_args.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string_view>

#include "util/error.h"

namespace nanocache::api {

namespace {

/// --assoc accepts 1/2/4/8 or "full" (fully associative), like the wire's
/// organization.associativity.
int parse_assoc_flag(const std::string& s) {
  if (s == "full") return -1;
  try {
    return std::stoi(s);
  } catch (const std::exception&) {
    throw Error(ErrorCategory::kConfig,
                "--assoc expects 1, 2, 4, 8 or 'full', got '" + s + "'");
  }
}

/// Shared v3 design-space flags of the cache/optimize commands.
void apply_organization_flags(const CliArgs& args, OrganizationSpec& org) {
  const auto assoc = args.flags.find("assoc");
  if (assoc != args.flags.end()) {
    org.associativity = parse_assoc_flag(assoc->second);
  }
  org.banks = static_cast<std::uint32_t>(flag_uint(args, "banks", org.banks));
  if (org.banks == 1) org.banks = 0;  // same normalization as the parser
}

int node_flag(const CliArgs& args) {
  return static_cast<int>(flag_uint(args, "node", 0));
}

/// v4 --exactness exact|surrogate|auto (absent = auto, the wire default).
Exactness exactness_flag(const CliArgs& args) {
  const auto it = args.flags.find("exactness");
  if (it == args.flags.end()) return Exactness::kAuto;
  if (it->second == "auto") return Exactness::kAuto;
  if (it->second == "exact") return Exactness::kExact;
  if (it->second == "surrogate") return Exactness::kSurrogate;
  throw Error(ErrorCategory::kConfig,
              "--exactness expects 'exact', 'surrogate' or 'auto', got '" +
                  it->second + "'");
}

/// True when `--key` appears in the help text as a whole flag token.
bool documented_flag(const std::string& key) {
  const std::string_view usage = cli_usage();
  const std::string token = "--" + key;
  for (auto pos = usage.find(token); pos != std::string_view::npos;
       pos = usage.find(token, pos + 1)) {
    const std::size_t end = pos + token.size();
    const char next = end < usage.size() ? usage[end] : ' ';
    if (!std::isalnum(static_cast<unsigned char>(next)) && next != '-') {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* cli_usage() {
  return
      "usage:\n"
      "  nanocache_cli list\n"
      "  nanocache_cli cache --size <bytes> [--l2] [--vth V] [--tox A]\n"
      "               [--assoc 1|2|4|8|full] [--banks N] [--node nm]\n"
      "  nanocache_cli optimize --size <bytes> --scheme I|II|III "
      "--delay-ps <ps>\n"
      "               [--assoc 1|2|4|8|full] [--banks N] [--node nm]\n"
      "               [--power-gating] [--perf-loss-budget F]\n"
      "  nanocache_cli run fig1|schemes|l2|l2split|l1|fig2 "
      "[--fitted] [--strict]\n"
      "  nanocache_cli run schemes [--size <bytes>] [--steps N]\n"
      "  nanocache_cli run l2|l2split|l1 [--amat-ps <ps>] [--node nm]\n"
      "  nanocache_cli batch <requests.jsonl | -> \n"
      "  nanocache_cli serve --listen <unix:/path/sock | tcp:host:port>\n"
      "               [--max-line-bytes N] [--queue-capacity N]\n"
      "  nanocache_cli capabilities\n"
      "  nanocache_cli precompute --out <dir> [--l1-sizes a,b] "
      "[--l2-sizes a,b]\n"
      "               [--nodes 0,90,...] [--vth-steps N] [--tox-steps N]\n"
      "               [--target-steps N] [--stamp TEXT]\n"
      "  nanocache_cli frontier --size <bytes> [--l2] --scheme I|II|III\n"
      "  nanocache_cli sensitivity --size <bytes> [--l2] [--vth V] "
      "[--tox A]\n"
      "  nanocache_cli variation --size <bytes> [--l2] [--vth V] [--tox A] "
      "[--samples N]\n"
      "  nanocache_cli export [--dir <directory>] [--fitted] [--strict]\n"
      "flags:\n"
      "  --fitted     drive experiments from the paper's fitted closed forms\n"
      "  --strict     treat fitted-model degradation as a hard error\n"
      "  --assoc 1|2|4|8|full  explicit set-associativity: engages the\n"
      "               split-tag model (tag array + way comparators as fifth\n"
      "               and sixth optimizable components)\n"
      "  --banks N    multi-bank organization (power of two <= 8)\n"
      "  --node nm    technology node: 90|65|45|32|22 (default: the 65 nm\n"
      "               node the paper calibrates)\n"
      "  --power-gating          let the optimizer park idle components in\n"
      "               sleep states (leakage cut to a fraction)\n"
      "  --perf-loss-budget F    relax the delay constraint by the fraction\n"
      "               F in [0,1] to pay for sleep-state wake latency\n"
      "  --cache-dir <dir>  persist results across runs (also the\n"
      "               NANOCACHE_CACHE_DIR environment variable; the flag\n"
      "               wins).  Segments are fingerprinted by configuration,\n"
      "               so differently configured runs never share entries.\n"
      "  --surrogate-dir <dir>  load precomputed answer tables and serve\n"
      "               covered eval/optimize requests by interpolation (also\n"
      "               the NANOCACHE_SURROGATE_DIR environment variable; the\n"
      "               flag wins).  Uncovered requests fall back to the exact\n"
      "               engine; see --exactness.\n"
      "  --exactness exact|surrogate|auto  v4 routing for cache/optimize:\n"
      "               'exact' always runs the exact engine, 'surrogate'\n"
      "               errors unless a table covers the request, 'auto'\n"
      "               (default) prefers tables and falls back\n"
      "  --threads N  worker threads for sweeps (default: hardware "
      "concurrency;\n"
      "               results are identical at any thread count).  The\n"
      "               NANOCACHE_THREADS environment variable accepts 1-1024\n"
      "               (capped at 64 workers); anything else is a config "
      "error.\n"
      "  --metrics <file|->  after the command finishes, write the process\n"
      "               metrics snapshot (counters, histograms, phase timings,\n"
      "               spans; docs/API.md) as JSON to <file>, or to stderr\n"
      "               for '-'.  Never touches stdout: command output stays\n"
      "               byte-identical with or without this flag.\n"
      "batch: one JSON request per line (docs/API.md); one response line per\n"
      "  request, in input order.  Per-request failures stay in-band as\n"
      "  error responses; the process exits 0 unless the stream itself is\n"
      "  unreadable.  Dedup/memoization stats go to stderr.\n"
      "precompute: drive the exact engine over a refined knob lattice and a\n"
      "  delay-target ladder and write surrogate answer tables (with\n"
      "  certified per-answer error bounds) under --out, keyed by the\n"
      "  service configuration's fingerprint.  A later run pointed at the\n"
      "  same directory via --surrogate-dir picks them up automatically.\n"
      "serve: speak the batch JSONL protocol over a socket, multiplexing\n"
      "  concurrent clients onto one warm service (docs/API.md).  Responses\n"
      "  per connection are byte-identical to batch output for the same\n"
      "  lines.  SIGINT/SIGTERM drain in-flight requests, flush the disk\n"
      "  cache, and exit 0.\n"
      "exit codes (from the error taxonomy; scripts branch on these):\n"
      "  0 ok    1 internal     2 config (malformed request/flags)\n"
      "  3 io    4 numeric-domain or infeasible\n";
}

CliArgs parse_cli_args(int argc, const char* const* argv) {
  CliArgs a;
  if (argc < 2) return a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      NC_REQUIRE(documented_flag(key),
                 "unknown flag '" + arg + "' (see nanocache_cli usage)");
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        a.flags[key] = argv[++i];
      } else {
        a.flags[key] = "true";
      }
    } else if (a.positional.empty()) {
      a.positional = arg;
    }
  }
  return a;
}

double flag_double(const CliArgs& args, const std::string& key,
                   double fallback) {
  const auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw Error(ErrorCategory::kConfig,
                "--" + key + " expects a number, got '" + it->second + "'");
  }
}

std::uint64_t flag_uint(const CliArgs& args, const std::string& key,
                        std::uint64_t fallback) {
  const auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  try {
    return std::stoull(it->second);
  } catch (const std::exception&) {
    throw Error(ErrorCategory::kConfig, "--" + key +
                    " expects a non-negative integer, got '" + it->second +
                    "'");
  }
}

bool flag_present(const CliArgs& args, const std::string& key) {
  return args.flags.count(key) > 0;
}

SchemeId flag_scheme(const CliArgs& args, SchemeId fallback) {
  const auto it = args.flags.find("scheme");
  if (it == args.flags.end()) return fallback;
  return require_known(scheme_id_from_name(it->second), "scheme", it->second);
}

opt::Scheme to_opt_scheme(SchemeId id) {
  switch (id) {
    case SchemeId::kI: return opt::Scheme::kPerComponent;
    case SchemeId::kII: return opt::Scheme::kArrayPeriphery;
    case SchemeId::kIII: return opt::Scheme::kUniform;
  }
  return opt::Scheme::kArrayPeriphery;
}

ServiceConfig service_config_from_args(const CliArgs& args) {
  ServiceConfig config;
  config.use_fitted_models = flag_present(args, "fitted");
  config.strict_degradation = flag_present(args, "strict");

  // Persistent result cache: --cache-dir wins, then NANOCACHE_CACHE_DIR;
  // neither means no persistence.
  const auto dir = args.flags.find("cache-dir");
  if (dir != args.flags.end()) {
    NC_REQUIRE(dir->second != "true",
               "--cache-dir expects a directory path");
    config.cache_dir = dir->second;
  } else if (const char* env = std::getenv("NANOCACHE_CACHE_DIR")) {
    config.cache_dir = env;
  }

  // Surrogate answer tables: --surrogate-dir wins, then
  // NANOCACHE_SURROGATE_DIR; neither means exact-only serving.
  const auto surrogate = args.flags.find("surrogate-dir");
  if (surrogate != args.flags.end()) {
    NC_REQUIRE(surrogate->second != "true",
               "--surrogate-dir expects a directory path");
    config.surrogate_dir = surrogate->second;
  } else if (const char* env = std::getenv("NANOCACHE_SURROGATE_DIR")) {
    config.surrogate_dir = env;
  }
  return config;
}

int threads_from_args(const CliArgs& args) {
  const auto it = args.flags.find("threads");
  if (it == args.flags.end()) return 0;
  int threads = 0;
  try {
    threads = std::stoi(it->second);
  } catch (const std::exception&) {
    throw Error(ErrorCategory::kConfig,
                "--threads expects an integer, got '" + it->second + "'");
  }
  NC_REQUIRE(threads >= 0, "--threads must be >= 0");
  return threads;
}

Outcome<Request> request_from_args(const CliArgs& args) {
  try {
    Request r;
    if (args.command == "capabilities") {
      r.kind = RequestKind::kCapabilities;
      return r;
    }
    if (args.command == "cache") {
      r.kind = RequestKind::kEval;
      r.eval.target.level = flag_present(args, "l2") ? Level::kL2 : Level::kL1;
      r.eval.target.size_bytes =
          flag_uint(args, "size", r.eval.target.size_bytes);
      r.eval.knobs.vth_v = flag_double(args, "vth", r.eval.knobs.vth_v);
      r.eval.knobs.tox_a = flag_double(args, "tox", r.eval.knobs.tox_a);
      apply_organization_flags(args, r.eval.organization);
      r.eval.node_nm = node_flag(args);
      r.eval.exactness = exactness_flag(args);
      return r;
    }
    if (args.command == "optimize") {
      r.kind = RequestKind::kOptimize;
      r.optimize.target.level =
          flag_present(args, "l2") ? Level::kL2 : Level::kL1;
      r.optimize.target.size_bytes =
          flag_uint(args, "size", r.optimize.target.size_bytes);
      r.optimize.scheme = flag_scheme(args, r.optimize.scheme);
      r.optimize.delay.target_ps =
          flag_double(args, "delay-ps", r.optimize.delay.target_ps);
      apply_organization_flags(args, r.optimize.organization);
      r.optimize.node_nm = node_flag(args);
      if (flag_present(args, "power-gating")) {
        r.optimize.power_gating.enabled = true;
      }
      r.optimize.power_gating.perf_loss_budget = flag_double(
          args, "perf-loss-budget", r.optimize.power_gating.perf_loss_budget);
      r.optimize.exactness = exactness_flag(args);
      return r;
    }
    if (args.command == "run") {
      r.kind = RequestKind::kSweep;
      if (args.positional == "schemes") {
        r.sweep.kind = SweepKind::kSchemes;
        r.sweep.target.size_bytes = flag_uint(args, "size", 0);
        r.sweep.ladder_steps =
            static_cast<int>(flag_uint(args, "steps", 9));
      } else if (args.positional == "l2" || args.positional == "l2split") {
        r.sweep.kind = SweepKind::kL2Sizes;
        r.sweep.l2_scheme =
            args.positional == "l2split" ? SchemeId::kII : SchemeId::kIII;
        r.sweep.delay.target_ps = flag_double(args, "amat-ps", 0.0);
      } else if (args.positional == "l1") {
        r.sweep.kind = SweepKind::kL1Sizes;
        r.sweep.delay.target_ps = flag_double(args, "amat-ps", 0.0);
      } else {
        throw Error(ErrorCategory::kConfig,
                    "experiment '" + args.positional +
                        "' is not request-shaped (expected schemes, l2, "
                        "l2split or l1)");
      }
      r.sweep.node_nm = node_flag(args);
      return r;
    }
    throw Error(ErrorCategory::kConfig,
                "command '" + args.command + "' has no request translation");
  } catch (const Error& e) {
    const ErrorCode code = e.category() == ErrorCategory::kConfig
                               ? ErrorCode::kConfig
                               : ErrorCode::kInternal;
    return Outcome<Request>::failure(code, e.what());
  }
}

int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kConfig: return 2;
    case ErrorCode::kIo: return 3;
    case ErrorCode::kNumericDomain:
    case ErrorCode::kInfeasible: return 4;
    case ErrorCode::kInternal: return 1;
  }
  return 1;
}

}  // namespace nanocache::api
