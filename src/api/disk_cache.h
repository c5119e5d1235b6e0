// Persistent cross-run result cache under api::MemoCache.
//
// A DiskCache holds one JSONL segment file of (request key -> serialized
// response) entries, content-addressed by the same canonical bit-pattern
// request keys the in-memory batch dedup uses.  The segment is bound to one
// library fingerprint — a hash over everything that can change an answer
// (model configuration, grid bit patterns, schema + API version) — so a
// run with a different configuration reads from, and writes to, a
// different file instead of mixing results.
//
// The file is a util/segment.h segment (the format is described there):
// <dir>/nanocache-<fingerprint>.jsonl with one (key, response) per entry.
//
// Policies on top of the format: a header mismatch discards and rewrites
// the segment (api.disk.segment_resets); dropped entries (api.disk.
// corrupt_lines) just recompute.  Only an unusable cache directory or
// segment is an error (Error(kIo) from open()), because the caller asked
// for persistence it cannot have.
//
// Concurrency: entries load fully into memory at open(); lookups and the
// append-on-store (one line through the segment held open since open())
// run under one mutex.  The cache stores serialized
// response lines, not structs — a hit re-parses with parse_response_json,
// whose round-trip exactness keeps cached responses byte-identical to
// freshly computed ones.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/segment.h"

namespace nanocache::api {

class DiskCache {
 public:
  /// Open (creating as needed) the segment for `fingerprint` inside `dir`.
  /// Creates the directory, validates the header, loads all intact entries.
  /// Throws Error(kIo) when the directory or segment cannot be created or
  /// written — a cache that cannot persist is a configuration error, not a
  /// silent no-op.
  static std::unique_ptr<DiskCache> open(const std::string& dir,
                                         const std::string& fingerprint);

  /// The stored response line for `key`, or nullopt (miss).  Counts into
  /// hits()/misses() and the api.disk.* metrics.
  std::optional<std::string> lookup(const std::string& key);

  /// Append (key -> response_json) unless the key is already present.
  /// Each append is one write to the open segment; a failed append
  /// disables further writes for this run (the in-memory copy stays
  /// serving, api.disk.write_errors counts it) rather than throwing
  /// mid-batch.
  void store(const std::string& key, const std::string& response_json);

  /// Durability barrier: fsync the segment file.  store() writes each
  /// append out of the process, but only into the OS page cache; flush()
  /// pushes the segment to stable storage (a server shutting down calls
  /// this).  Returns the in-memory entry count.  A failed sync degrades
  /// like a failed append: the in-memory copy keeps serving.
  std::size_t flush();

  const std::string& path() const { return path_; }

  std::size_t hits() const;
  std::size_t misses() const;

 private:
  DiskCache() = default;

  std::string path_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> entries_;
  /// Null once an append failed: memory-only from then on.
  std::unique_ptr<segment::Appender> appender_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace nanocache::api
