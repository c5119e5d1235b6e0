// Shared command-line -> API translation.  The CLI (and any other driver
// binary) parses argv once into CliArgs and converts the result into the
// facade's typed requests and configuration here, so every front end
// understands the same flags (--fitted / --strict / --threads, sizes,
// schemes, targets) with the same spelling and the same validation.
#pragma once

#include <map>
#include <string>

#include "nanocache/requests.h"
#include "nanocache/service.h"
#include "nanocache/types.h"
#include "opt/schemes.h"

namespace nanocache::api {

/// argv split into `command [positional] [--flag [value]]...`.  A flag
/// followed by another flag (or nothing) gets the value "true".
struct CliArgs {
  std::string command;
  std::string positional;
  std::map<std::string, std::string> flags;
};

/// Throws Error(kConfig) naming the first flag the help text (cli_usage)
/// does not document, so a misspelt flag never falls back to a default.
CliArgs parse_cli_args(int argc, const char* const* argv);

/// The CLI help text.  Its `--flag` tokens are the set parse_cli_args
/// accepts.
const char* cli_usage();

/// Typed flag accessors; throw Error(kConfig) for unparseable values.
double flag_double(const CliArgs& args, const std::string& key,
                   double fallback);
std::uint64_t flag_uint(const CliArgs& args, const std::string& key,
                        std::uint64_t fallback);
bool flag_present(const CliArgs& args, const std::string& key);
/// --scheme I|II|III (nanocache/types.h spelling), `fallback` when absent;
/// Error(kConfig) "unknown scheme 'X'" for any other value.
SchemeId flag_scheme(const CliArgs& args, SchemeId fallback);

/// The optimizer's enum for a wire scheme id.
opt::Scheme to_opt_scheme(SchemeId id);

/// Service configuration from the shared flags: --fitted, --strict,
/// --cache-dir DIR (falling back to $NANOCACHE_CACHE_DIR; empty disables
/// the persistent result cache), --surrogate-dir DIR (falling back to
/// $NANOCACHE_SURROGATE_DIR; empty disables the surrogate serving tier).
ServiceConfig service_config_from_args(const CliArgs& args);

/// The --threads flag (0 = keep the pool default).  Throws Error(kConfig)
/// for non-integer or negative values.
int threads_from_args(const CliArgs& args);

/// Translate a request-shaped command into the facade request it denotes:
///   cache    -> kEval      (--size, --l2, --vth, --tox)
///   optimize -> kOptimize  (--size, --l2, --scheme, --delay-ps)
///   run schemes|l2|l2split|l1 -> kSweep (--size, --steps, --amat-ps)
///   capabilities -> kCapabilities
/// Unknown commands/experiments yield a typed kConfig failure.  Commands
/// that are not request-shaped (fig1/fig2 rendering, export, ...) are the
/// caller's business via the Service escape hatch.
Outcome<Request> request_from_args(const CliArgs& args);

/// The documented error-taxonomy -> process-exit-code mapping shared by all
/// drivers: config=2, io=3, numeric-domain/infeasible=4, internal=1.
int exit_code_for(ErrorCode code);

}  // namespace nanocache::api
