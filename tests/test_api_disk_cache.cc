// Persistent cross-run result cache: cold/warm reuse with byte-identical
// responses, the corruption contract (truncated segment, garbage lines,
// checksum mismatches, and stale fingerprints degrade to recomputation —
// never to a wrong answer), typed kIo surfacing for an unusable directory,
// the v1 -> v2 schema normalization goldens, and the parse_response_json
// round-trip exactness the disk hit path depends on.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/batch_io.h"
#include "api/disk_cache.h"
#include "nanocache/api.h"

namespace nanocache::api {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test cache directory under the GTest temp root.
fs::path test_cache_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("nanocache_" + name);
  fs::remove_all(dir);
  return dir;
}

std::shared_ptr<Service> make_service(ServiceConfig config = {}) {
  auto service = Service::create(std::move(config));
  EXPECT_TRUE(service.ok()) << service.error().message;
  return service.value();
}

/// A small mixed workload (kept fast: evals plus two optimizations).
std::vector<Request> small_workload() {
  std::vector<Request> requests;
  int next_id = 0;
  const auto push = [&](Request r) {
    r.id = "q" + std::to_string(next_id++);
    requests.push_back(std::move(r));
  };
  for (const double vth : {0.25, 0.35, 0.45}) {
    Request r;
    r.kind = RequestKind::kEval;
    r.eval.knobs = Knobs{vth, 12.0};
    push(std::move(r));
  }
  for (const double ps : {1400.0, 1600.0}) {
    Request r;
    r.kind = RequestKind::kOptimize;
    r.optimize.scheme = SchemeId::kII;
    r.optimize.delay.target_ps = ps;
    push(std::move(r));
  }
  return requests;
}

std::string serialized(const BatchResult& batch) {
  std::string bytes;
  for (const auto& response : batch.responses) {
    bytes += response_to_json(response);
    bytes += '\n';
  }
  return bytes;
}

/// The one segment file a cached run produced (fingerprint is internal, so
/// tests locate it by the documented naming pattern).
fs::path segment_path(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("nanocache-", 0) == 0) return entry.path();
  }
  ADD_FAILURE() << "no cache segment found in " << dir;
  return {};
}

/// Serve the workload through a fresh service bound to `dir` and return
/// (serialized bytes, batch stats).
BatchResult run_cached(const fs::path& dir,
                       const std::vector<Request>& workload) {
  ServiceConfig config;
  config.cache_dir = dir.string();
  return make_service(std::move(config))->run_batch(workload);
}

TEST(ApiDiskCache, ColdThenWarmRunIsByteIdenticalAndHits) {
  const auto dir = test_cache_dir("reuse");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));

  const auto cold = run_cached(dir, workload);
  EXPECT_EQ(cold.stats.disk_hits, 0u);
  EXPECT_EQ(cold.stats.disk_misses, workload.size());  // no duplicates here
  EXPECT_EQ(serialized(cold), reference);

  const auto warm = run_cached(dir, workload);
  EXPECT_EQ(warm.stats.disk_hits, workload.size());
  EXPECT_EQ(warm.stats.disk_misses, 0u);
  // The headline contract: a disk hit serves the same bytes the original
  // computation (and an uncached service) produced.
  EXPECT_EQ(serialized(warm), reference);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, TruncatedSegmentFallsBackToComputation) {
  const auto dir = test_cache_dir("truncated");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  // Chop the file mid-entry, as a crash mid-append would.
  const auto path = segment_path(dir);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - size / 3);

  const auto after = run_cached(dir, workload);
  EXPECT_EQ(serialized(after), reference);
  // The intact prefix still hits; the severed tail recomputes.
  EXPECT_LT(after.stats.disk_hits, workload.size());
  EXPECT_GT(after.stats.disk_misses, 0u);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, GarbageLinesAreSkippedNeverServed) {
  const auto dir = test_cache_dir("garbage");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  {
    std::ofstream out(segment_path(dir), std::ios::app);
    out << "this is not a cache entry\n"
        << "{\"key\":\"missing the other fields\"}\n";
  }
  const auto after = run_cached(dir, workload);
  EXPECT_EQ(serialized(after), reference);
  EXPECT_EQ(after.stats.disk_hits, workload.size());
  fs::remove_all(dir);
}

TEST(ApiDiskCache, ChecksumMismatchDropsTheEntry) {
  const auto dir = test_cache_dir("checksum");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  // Flip response bytes inside one entry without touching its checksum: a
  // bit-rotted answer must be dropped, not served.
  const auto path = segment_path(dir);
  std::string contents;
  {
    std::ifstream in(path);
    std::string line;
    bool corrupted = false;
    while (std::getline(in, line)) {
      const auto pos = line.find("leakage_mw");
      if (!corrupted && pos != std::string::npos) {
        line.replace(pos, 10, "leakage_MW");
        corrupted = true;
      }
      contents += line;
      contents += '\n';
    }
    EXPECT_TRUE(corrupted);
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }

  const auto after = run_cached(dir, workload);
  EXPECT_EQ(serialized(after), reference);
  EXPECT_EQ(after.stats.disk_hits, workload.size() - 1);
  EXPECT_EQ(after.stats.disk_misses, 1u);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, StaleFingerprintResetsTheSegment) {
  const auto dir = test_cache_dir("stale");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  // Rewrite the header with a different fingerprint: the segment now claims
  // to answer for another configuration and must be discarded whole.
  const auto path = segment_path(dir);
  std::string contents;
  {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    contents += "{\"nanocache_cache\":1,\"fingerprint\":\"";
    contents += fnv1a64_hex("a different configuration");
    contents += "\"}\n";
    while (std::getline(in, line)) {
      contents += line;
      contents += '\n';
    }
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }

  const auto after = run_cached(dir, workload);
  EXPECT_EQ(serialized(after), reference);
  EXPECT_EQ(after.stats.disk_hits, 0u);
  EXPECT_EQ(after.stats.disk_misses, workload.size());
  // And the reset re-populated the segment: the next run hits again.
  const auto warm = run_cached(dir, workload);
  EXPECT_EQ(warm.stats.disk_hits, workload.size());
  EXPECT_EQ(serialized(warm), reference);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, DifferentConfigurationsUseDifferentSegments) {
  const auto dir = test_cache_dir("fingerprints");
  const auto workload = small_workload();
  run_cached(dir, workload);

  ServiceConfig fitted;
  fitted.cache_dir = dir.string();
  fitted.use_fitted_models = true;
  const auto other = make_service(std::move(fitted))->run_batch(workload);
  // A differently configured service never reads the structural segment.
  EXPECT_EQ(other.stats.disk_hits, 0u);

  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segments;
  }
  EXPECT_EQ(segments, 2u);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, UnusableDirectoryIsATypedIoError) {
  // A path through a regular file cannot become a directory (works even
  // when running as root, unlike permission bits).
  const auto dir = test_cache_dir("unusable");
  fs::create_directories(dir);
  { std::ofstream block((dir / "blocker").string()); }

  ServiceConfig config;
  config.cache_dir = (dir / "blocker" / "sub").string();
  const auto outcome = Service::create(std::move(config));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kIo);
  fs::remove_all(dir);
}

TEST(ApiV1Compat, V1RequestsNormalizeToV2AndAnswerIdentically) {
  // One golden per kind, in the v1 flat spelling.
  const std::vector<std::string> v1_lines = {
      "{\"schema_version\":1,\"id\":\"e\",\"kind\":\"eval\",\"level\":\"l1\","
      "\"size_bytes\":16384,\"vth_v\":0.3,\"tox_a\":13}",
      "{\"schema_version\":1,\"id\":\"o\",\"kind\":\"optimize\",\"level\":"
      "\"l1\",\"size_bytes\":16384,\"scheme\":\"II\",\"delay_ps\":1500}",
      "{\"schema_version\":1,\"id\":\"s\",\"kind\":\"sweep\",\"sweep\":"
      "\"schemes\",\"cache_size_bytes\":16384,\"delay_targets_ps\":[1500]}",
      "{\"schema_version\":1,\"id\":\"t\",\"kind\":\"tuple_menu\",\"num_tox\":"
      "2,\"num_vth\":2,\"amat_targets_ps\":[1700]}",
  };
  // The same requests in the v2 nested spelling.
  const std::vector<std::string> v2_lines = {
      "{\"schema_version\":2,\"id\":\"e\",\"kind\":\"eval\",\"target\":"
      "{\"level\":\"l1\",\"size_bytes\":16384},\"knobs\":{\"vth_v\":0.3,"
      "\"tox_a\":13}}",
      "{\"schema_version\":2,\"id\":\"o\",\"kind\":\"optimize\",\"target\":"
      "{\"level\":\"l1\",\"size_bytes\":16384},\"scheme\":\"II\",\"delay\":"
      "{\"target_ps\":1500}}",
      "{\"schema_version\":2,\"id\":\"s\",\"kind\":\"sweep\",\"sweep\":"
      "\"schemes\",\"target\":{\"size_bytes\":16384},\"delay\":"
      "{\"targets_ps\":[1500]}}",
      "{\"schema_version\":2,\"id\":\"t\",\"kind\":\"tuple_menu\",\"num_tox\":"
      "2,\"num_vth\":2,\"delay\":{\"targets_ps\":[1700]}}",
  };

  const auto service = make_service();
  for (std::size_t i = 0; i < v1_lines.size(); ++i) {
    const auto v1 = parse_request_json(v1_lines[i]);
    ASSERT_TRUE(v1.ok()) << v1.error().message << " for " << v1_lines[i];
    const auto v2 = parse_request_json(v2_lines[i]);
    ASSERT_TRUE(v2.ok()) << v2.error().message << " for " << v2_lines[i];

    // Normalization: a parsed v1 request IS a v2 request — same serialized
    // bytes, same canonical key, same response bytes.
    EXPECT_EQ(v1.value().schema_version, kSchemaVersion);
    EXPECT_EQ(request_to_json(v1.value()), request_to_json(v2.value()));
    EXPECT_EQ(request_canonical_key(v1.value()),
              request_canonical_key(v2.value()));
    EXPECT_EQ(response_to_json(service->serve(v1.value())),
              response_to_json(service->serve(v2.value())));
  }
}

TEST(ApiV1Compat, UnsupportedVersionsQuoteTheSupportedRange) {
  const auto parsed =
      parse_request_json("{\"schema_version\":99,\"kind\":\"eval\"}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("1..4"), std::string::npos)
      << parsed.error().message;
}

TEST(ApiCapabilities, ReportsVersionsBoundsAndConfiguration) {
  const auto service = make_service();
  const auto outcome = service->capabilities({});
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const auto& c = outcome.value();
  EXPECT_EQ(c.schema_versions, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(c.vth_min_v, 0.2);
  EXPECT_DOUBLE_EQ(c.vth_max_v, 0.5);
  EXPECT_DOUBLE_EQ(c.tox_min_a, 10.0);
  EXPECT_DOUBLE_EQ(c.tox_max_a, 14.0);
  EXPECT_EQ(c.grid_vth_v.size(), 7u);  // the paper grid
  EXPECT_EQ(c.grid_tox_a.size(), 5u);
  EXPECT_EQ(c.schemes, (std::vector<std::string>{"I", "II", "III"}));
  EXPECT_EQ(c.l1_size_bytes, 16u * 1024u);
  EXPECT_EQ(c.l2_size_bytes, 1024u * 1024u);
  EXPECT_GT(c.threads, 0);
  EXPECT_EQ(c.search_mode, "pruned");
  EXPECT_FALSE(c.fitted_models);
  EXPECT_FALSE(c.disk_cache);

  // serve() wraps it like any other kind, and the wire form round-trips.
  Request request;
  request.kind = RequestKind::kCapabilities;
  request.id = "caps";
  const auto response = service->serve(request);
  ASSERT_TRUE(response.ok) << response.error.message;
  const std::string bytes = response_to_json(response);
  const auto reparsed = parse_response_json(bytes);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(response_to_json(reparsed.value()), bytes);
}

TEST(ApiResponseParse, RoundTripsEverySuccessShape) {
  const auto service = make_service();
  auto workload = small_workload();
  {
    Request r;  // infeasible optimize: data, not error
    r.id = "squeezed";
    r.kind = RequestKind::kOptimize;
    r.optimize.delay.target_ps = 1.0;
    workload.push_back(std::move(r));
  }
  {
    Request r;  // one-target schemes sweep
    r.id = "sweep";
    r.kind = RequestKind::kSweep;
    r.sweep.kind = SweepKind::kSchemes;
    r.sweep.delay.targets_ps = {1500.0};
    workload.push_back(std::move(r));
  }
  {
    Request r;  // typed in-band error response
    r.id = "bad";
    r.kind = RequestKind::kOptimize;
    r.optimize.delay.target_ps = -1.0;
    workload.push_back(std::move(r));
  }
  for (const auto& request : workload) {
    const std::string bytes = response_to_json(service->serve(request));
    const auto parsed = parse_response_json(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message << " for " << bytes;
    EXPECT_EQ(response_to_json(parsed.value()), bytes);
  }
}

}  // namespace
}  // namespace nanocache::api
