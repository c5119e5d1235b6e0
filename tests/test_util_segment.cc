// Checksummed JSONL segments (util/segment.h): the checked-in fixtures pin
// the on-disk bytes of both segment kinds — a disk-cache segment and a
// surrogate table segment, each with a fixed fingerprint and fixed entries
// — and the reader's states cover every way a file can be damaged.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/disk_cache.h"
#include "surrogate/store.h"
#include "surrogate/tables.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/segment.h"

namespace nanocache {
namespace {

namespace fs = std::filesystem;

const std::string kFingerprint = "0123456789abcdef";

std::string data_path(const std::string& name) {
  return std::string(NANOCACHE_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("nanocache_seg_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The fixture's disk-cache entries: plain, escape-heavy (quote, backslash,
/// tab, a control byte) and an error response.
const std::vector<std::pair<std::string, std::string>>& disk_entries() {
  static const std::vector<std::pair<std::string, std::string>> entries = {
      {"eval|l1|16384|0.3|12", "{\"id\":\"\",\"ok\":true,\"kind\":\"eval\"}"},
      {"k\"quoted\"\\back\t\x01",
       "{\"note\":\"tab\\there \\\"q\\\" \\u0001\"}"},
      {"optimize|l2|1048576|II|1500",
       "{\"ok\":false,\"error\":{\"code\":\"infeasible\",\"message\":"
       "\"line\\nbreak\"}}"},
  };
  return entries;
}

/// The fixture's surrogate tables: one 2x2 eval lattice, one two-rung
/// optimize ladder.
surrogate::EvalTable fixture_eval() {
  surrogate::EvalTable e;
  e.level = api::Level::kL1;
  e.size_bytes = 16384;
  e.organization = "fixture \"org\"";
  e.components = {"array"};
  e.vth_v = {0.3, 0.4};
  e.tox_a = {11.0, 12.0};
  for (int i = 0; i < 36; ++i) e.values.push_back(0.25 * i + 1.0 / 3.0);
  e.bound_leakage = {2.0, 0.001};
  e.bound_access = {1.5, 0.0};
  e.bound_dynamic = {2.0, 0.01};
  return e;
}

surrogate::OptimizeTable fixture_optimize() {
  surrogate::OptimizeTable o;
  o.level = api::Level::kL2;
  o.size_bytes = 1048576;
  o.scheme = api::SchemeId::kII;
  for (int r = 0; r < 2; ++r) {
    surrogate::OptimizeRung rung;
    rung.target_ps = 1400.0 + 200.0 * r;
    rung.leakage_mw = 30.0 - 7.5 * r;
    rung.access_time_ps = 1350.0 + 190.0 * r;
    rung.dynamic_pj = 12.5;
    rung.assignment.push_back({"array", {0.35, 12.0}});
    o.rungs.push_back(rung);
  }
  return o;
}

TEST(SegmentFormat, DiskCacheWritesTheFixtureByteForByte) {
  const auto dir = test_dir("disk_write");
  {
    auto cache = api::DiskCache::open(dir.string(), kFingerprint);
    for (const auto& [key, response] : disk_entries()) {
      cache->store(key, response);
    }
    cache->flush();
  }
  const auto path = dir / ("nanocache-" + kFingerprint + ".jsonl");
  EXPECT_EQ(read_file(path.string()),
            read_file(data_path("segment_disk_golden.jsonl")));
  fs::remove_all(dir);
}

TEST(SegmentFormat, SurrogateWriterWritesTheFixtureByteForByte) {
  const auto dir = test_dir("surrogate_write");
  const std::string path = surrogate::write_segment(
      dir.string(), kFingerprint, "fixture", {fixture_eval()},
      {fixture_optimize()});
  EXPECT_EQ(path, (dir / ("nanocache-surrogate-" + kFingerprint + ".jsonl"))
                      .string());
  EXPECT_EQ(read_file(path),
            read_file(data_path("segment_surrogate_golden.jsonl")));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(SegmentFormat, DiskCacheLoadsTheFixture) {
  const auto dir = test_dir("disk_read");
  fs::copy_file(data_path("segment_disk_golden.jsonl"),
                dir / ("nanocache-" + kFingerprint + ".jsonl"));
  auto& corrupt =
      metrics::Registry::instance().counter("api.disk.corrupt_lines");
  const auto corrupt_before = corrupt.value();
  auto cache = api::DiskCache::open(dir.string(), kFingerprint);
  EXPECT_EQ(corrupt.value(), corrupt_before);
  for (const auto& [key, response] : disk_entries()) {
    EXPECT_EQ(cache->lookup(key), response) << key;
  }
  EXPECT_EQ(cache->flush(), disk_entries().size());
  fs::remove_all(dir);
}

TEST(SegmentFormat, SurrogateStoreLoadsTheFixture) {
  const auto dir = test_dir("surrogate_read");
  fs::copy_file(data_path("segment_surrogate_golden.jsonl"),
                dir / ("nanocache-surrogate-" + kFingerprint + ".jsonl"));
  auto& corrupt =
      metrics::Registry::instance().counter("api.surrogate.corrupt_lines");
  const auto corrupt_before = corrupt.value();
  const auto store = surrogate::SurrogateStore::open(dir.string(),
                                                     kFingerprint);
  EXPECT_EQ(corrupt.value(), corrupt_before);
  EXPECT_EQ(store->eval_tables(), 1u);
  EXPECT_EQ(store->optimize_tables(), 1u);
  EXPECT_EQ(store->stamp(), "fixture");
  // The content checksum covers each accepted table line plus '\n'.
  const std::string content =
      surrogate::eval_table_json(fixture_eval()) + '\n' +
      surrogate::optimize_table_json(fixture_optimize()) + '\n';
  EXPECT_EQ(store->content_checksum(), fnv1a64_hex(content));

  const auto eval = store->lookup_eval(api::Level::kL1, 16384, 0,
                                       api::Knobs{0.3, 11.0});
  ASSERT_TRUE(eval.has_value());
  EXPECT_DOUBLE_EQ(eval->response.access_time_ps, 1.0 / 3.0);
  const auto opt = store->lookup_optimize(api::Level::kL2, 1048576, 0,
                                          api::SchemeId::kII, 1500.0);
  ASSERT_TRUE(opt.has_value());
  EXPECT_DOUBLE_EQ(opt->response.result.leakage_mw, 30.0);
  fs::remove_all(dir);
}

// --- reader states ----------------------------------------------------------

const segment::Format kTestFormat{"test", "test_segment", {"a", "b"}};

struct Loaded {
  segment::ReadResult result;
  std::vector<std::vector<std::string>> entries;
};

Loaded load(const std::string& path,
            const std::string& fingerprint = kFingerprint) {
  Loaded loaded;
  loaded.result = segment::read(path, kTestFormat, fingerprint,
                                [&](std::vector<std::string>& values) {
                                  loaded.entries.push_back(values);
                                });
  return loaded;
}

/// Entry i of a test segment: {"a<i>", "b<i>"}.
std::vector<std::string> entry(int i) {
  std::vector<std::string> values = {"a", "b"};
  for (auto& v : values) v += std::to_string(i);
  return values;
}

/// A segment of `kTestFormat` holding a0/b0 .. a<n-1>/b<n-1>.
std::string write_entries(const fs::path& dir, int n) {
  const std::string path = segment::path(dir.string(), kTestFormat,
                                         kFingerprint);
  auto out = segment::Appender::create(path, kTestFormat, kFingerprint,
                                       {{"stamp", "s1"}, {"note", "x"}});
  for (int i = 0; i < n; ++i) {
    const auto values = entry(i);
    EXPECT_TRUE(out->append({values[0], values[1]}));
  }
  return path;
}

std::vector<std::vector<std::string>> expected_entries(
    std::initializer_list<int> indices) {
  std::vector<std::vector<std::string>> out;
  for (const int i : indices) {
    out.push_back(entry(i));
  }
  return out;
}

TEST(SegmentReader, WritesTheDocumentedLayout) {
  const auto dir = test_dir("layout");
  const std::string path = write_entries(dir, 1);
  EXPECT_EQ(path, (dir / ("test-" + kFingerprint + ".jsonl")).string());
  EXPECT_EQ(read_file(path),
            "{\"test_segment\":1,\"fingerprint\":\"" + kFingerprint +
                "\",\"stamp\":\"s1\",\"note\":\"x\"}\n"
                "{\"a\":\"a0\",\"checksum\":\"" +
                fnv1a64_hex("a0\nb0") + "\",\"b\":\"b0\"}\n");
  const auto loaded = load(path);
  EXPECT_EQ(loaded.result.state, segment::State::kOk);
  EXPECT_EQ(loaded.result.header,
            (std::map<std::string, std::string>{{"note", "x"},
                                                {"stamp", "s1"}}));
  EXPECT_EQ(loaded.entries, expected_entries({0}));
  fs::remove_all(dir);
}

TEST(SegmentReader, MissingAndEmptyFiles) {
  const auto dir = test_dir("missing");
  const auto missing = load((dir / "nope.jsonl").string());
  EXPECT_EQ(missing.result.state, segment::State::kMissing);
  EXPECT_TRUE(missing.entries.empty());

  const std::string empty = (dir / "empty.jsonl").string();
  write_file(empty, "");
  EXPECT_EQ(load(empty).result.state, segment::State::kEmpty);
  fs::remove_all(dir);
}

TEST(SegmentReader, MismatchedHeadersDeliverNothing) {
  const auto dir = test_dir("mismatch");
  const std::string path = write_entries(dir, 2);
  const auto other = load(path, "fedcba9876543210");
  EXPECT_EQ(other.result.state, segment::State::kMismatch);
  EXPECT_TRUE(other.entries.empty());

  const std::string bytes = read_file(path);
  const std::string body = bytes.substr(bytes.find('\n'));
  for (const std::string& header : std::vector<std::string>{
           "garbage",
           "{\"other_magic\":1,\"fingerprint\":\"" + kFingerprint + "\"}",
           "{\"test_segment\":2,\"fingerprint\":\"" + kFingerprint + "\"}",
           "\n"}) {
    write_file(path, header + body);
    const auto loaded = load(path);
    EXPECT_EQ(loaded.result.state, segment::State::kMismatch) << header;
    EXPECT_TRUE(loaded.entries.empty()) << header;
  }
  fs::remove_all(dir);
}

TEST(SegmentReader, TruncatedTailDropsOnlyTheLastEntry) {
  const auto dir = test_dir("truncated");
  const std::string path = write_entries(dir, 3);
  fs::resize_file(path, fs::file_size(path) - 5);
  const auto loaded = load(path);
  EXPECT_EQ(loaded.result.state, segment::State::kOk);
  EXPECT_EQ(loaded.result.corrupt_lines, 1u);
  EXPECT_EQ(loaded.entries, expected_entries({0, 1}));
  fs::remove_all(dir);
}

TEST(SegmentReader, GarbageAndChecksumFlipsAreDroppedInPlace) {
  const auto dir = test_dir("garbage");
  const std::string path = write_entries(dir, 3);
  std::string bytes = read_file(path);
  // Flip a value under an unchanged checksum in entry 1, then add garbage,
  // an entry missing a field, and a non-string field after it.
  const auto pos = bytes.find("\"b1\"");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 2] = '7';
  bytes += "not json at all\n";
  bytes += "{\"a\":\"a9\",\"checksum\":\"" + fnv1a64_hex("a9\nb9") + "\"}\n";
  bytes += "{\"a\":\"a9\",\"checksum\":\"" + fnv1a64_hex("a9\n9") +
           "\",\"b\":9}\n";
  write_file(path, bytes);
  const auto loaded = load(path);
  EXPECT_EQ(loaded.result.state, segment::State::kOk);
  EXPECT_EQ(loaded.result.corrupt_lines, 4u);
  EXPECT_EQ(loaded.entries, expected_entries({0, 2}));
  fs::remove_all(dir);
}

TEST(SegmentReader, ACallbackThatThrowsMarksTheLineCorrupt) {
  const auto dir = test_dir("callback");
  const std::string path = write_entries(dir, 3);
  std::vector<std::string> seen;
  const auto result = segment::read(
      path, kTestFormat, kFingerprint, [&](std::vector<std::string>& values) {
        if (values[0] == "a1") {
          throw Error(ErrorCategory::kConfig, "rejected by the caller");
        }
        seen.push_back(values[0]);
      });
  EXPECT_EQ(result.state, segment::State::kOk);
  EXPECT_EQ(result.corrupt_lines, 1u);
  EXPECT_EQ(seen, (std::vector<std::string>{"a0", "a2"}));
  fs::remove_all(dir);
}

TEST(SegmentAppender, TornTailGetsItsNewlineBeforeTheNextEntry) {
  const auto dir = test_dir("torn");
  const std::string path = write_entries(dir, 3);
  // A crash mid-append: the last line loses its tail and its '\n'.
  fs::resize_file(path, fs::file_size(path) - 5);
  {
    auto out = segment::Appender::open(path, kTestFormat);
    EXPECT_TRUE(out->append({"a3", "b3"}));
    EXPECT_TRUE(out->append({"a4", "b4"}));
    EXPECT_TRUE(out->sync());
  }
  const auto loaded = load(path);
  EXPECT_EQ(loaded.result.corrupt_lines, 1u);
  EXPECT_EQ(loaded.entries, expected_entries({0, 1, 3, 4}));

  // An intact file gets no extra blank line.
  const std::string intact = write_entries(dir, 1);
  const auto before = fs::file_size(intact);
  { segment::Appender::open(intact, kTestFormat)->append({"a1", "b1"}); }
  EXPECT_EQ(read_file(intact).find("\n\n"), std::string::npos);
  EXPECT_GT(fs::file_size(intact), before);
  fs::remove_all(dir);
}

template <typename Fn>
void expect_io_error(Fn fn) {
  try {
    fn();
    ADD_FAILURE() << "expected Error(kIo)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo) << e.what();
  }
}

TEST(SegmentAppender, UnwritablePathsAreTypedIoErrors) {
  const auto dir = test_dir("unwritable");
  // A path through a regular file can be neither created nor opened.
  write_file((dir / "blocker").string(), "");
  const std::string path = (dir / "blocker" / "x.jsonl").string();
  expect_io_error(
      [&] { segment::Appender::create(path, kTestFormat, kFingerprint); });
  expect_io_error([&] { segment::Appender::open(path, kTestFormat); });
  fs::remove_all(dir);
}

}  // namespace
}  // namespace nanocache
