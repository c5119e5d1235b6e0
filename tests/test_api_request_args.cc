// Tests for the shared command-line translation: the CLI accepts exactly
// the flags its help text documents, so a misspelt or retired flag is a
// typed config error instead of a silently ignored default.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>
#include <vector>

#include "api/request_args.h"
#include "util/error.h"

namespace nanocache::api {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "nanocache_cli");
  return parse_cli_args(static_cast<int>(argv.size()), argv.data());
}

/// Parsing `argv` must fail with a kConfig error that names `flag`.
void expect_rejected(const std::vector<const char*>& argv,
                     const std::string& flag) {
  try {
    (void)parse(argv);
    ADD_FAILURE() << flag << " was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
        << e.what();
  }
}

std::set<std::string> help_flags() {
  const std::string usage = cli_usage();
  const std::regex flag("--([a-z0-9][a-z0-9-]*)");
  std::set<std::string> flags;
  for (auto it = std::sregex_iterator(usage.begin(), usage.end(), flag);
       it != std::sregex_iterator(); ++it) {
    flags.insert((*it)[1].str());
  }
  return flags;
}

TEST(RequestArgs, MisspeltFlagIsAConfigError) {
  expect_rejected({"optimize", "--size", "16384", "--scheme", "II",
                   "--delay_ps", "1"},
                  "--delay_ps");
  EXPECT_EQ(exit_code_for(ErrorCode::kConfig), 2);
}

TEST(RequestArgs, UnknownSchemeIsAConfigErrorEverywhere) {
  // optimize builds a request; frontier reads the flag directly.  Both go
  // through flag_scheme, so neither falls back to Scheme II.
  const auto optimize = request_from_args(parse({"optimize", "--scheme", "IV"}));
  ASSERT_FALSE(optimize.ok());
  EXPECT_EQ(optimize.error().code, ErrorCode::kConfig);
  EXPECT_NE(optimize.error().message.find("unknown scheme 'IV'"),
            std::string::npos)
      << optimize.error().message;
  try {
    (void)flag_scheme(parse({"frontier", "--scheme", "IV"}), SchemeId::kII);
    ADD_FAILURE() << "--scheme IV was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kConfig);
    EXPECT_NE(std::string(e.what()).find("unknown scheme 'IV'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(flag_scheme(parse({"frontier", "--scheme", "III"}), SchemeId::kII),
            SchemeId::kIII);
  EXPECT_EQ(flag_scheme(parse({"frontier"}), SchemeId::kII), SchemeId::kII);
}

TEST(RequestArgs, RetiredSearchFlagIsAConfigError) {
  expect_rejected({"batch", "requests.jsonl", "--search", "exhaustive"},
                  "--search");
}

TEST(RequestArgs, PrefixesOfDocumentedFlagsAreRejected) {
  expect_rejected({"cache", "--l"}, "--l");
  expect_rejected({"cache", "--siz", "16384"}, "--siz");
}

TEST(RequestArgs, EveryFlagInTheHelpIsAccepted) {
  const auto flags = help_flags();
  ASSERT_GE(flags.size(), 30u);
  for (const auto& flag : flags) {
    const std::string arg = "--" + flag;
    const auto args = parse({"optimize", arg.c_str(), "1"});
    EXPECT_EQ(args.flags.count(flag), 1u) << arg;
    EXPECT_EQ(args.flags.at(flag), "1") << arg;
  }
}

TEST(RequestArgs, FlagsAndPositionalSplit) {
  const auto args = parse({"run", "l2", "--fitted", "--amat-ps", "1700"});
  EXPECT_EQ(args.command, "run");
  EXPECT_EQ(args.positional, "l2");
  EXPECT_EQ(args.flags.at("fitted"), "true");
  EXPECT_EQ(args.flags.at("amat-ps"), "1700");
}

}  // namespace
}  // namespace nanocache::api
