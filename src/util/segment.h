// Checksummed JSONL segments: the one on-disk format of the persistent
// result cache (api::DiskCache) and the surrogate answer tables
// (surrogate::write_segment, SurrogateStore).  Only segment.cc knows it.
//
//   <dir>/<name>-<fingerprint>.jsonl
//     {"<magic>":1,"fingerprint":"<16 hex>"[,"<extra>":"...",...]}   header
//     {"<field 1>":"...",...,"checksum":"<16 hex>","<field n>":"..."}  entry
//
// The fingerprint hashes everything that can change an answer, so two
// configurations never share a file.  An entry is the Format's named
// string fields in order, with "checksum" — FNV-1a-64 hex over the values
// joined by '\n' — just before the last field:
//
//   disk cache  {"key":K,"checksum":fnv(K + '\n' + R),"response":R}
//   surrogate   {"checksum":fnv(T),"table":T}   (header extra: "stamp")
//
// Reading never yields a wrong answer.  A garbage header, or one naming
// another magic or fingerprint, makes the whole file a mismatch (the disk
// cache rewrites it; the read-only surrogate store ignores it).  A
// truncated, garbage or checksum-failing entry line is dropped and
// counted; the lines around it still load.  A crash can leave the last
// line without its '\n': the next Appender writes it before its first
// entry, so the torn line stays one dropped line.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nanocache::segment {

struct Format {
  std::string name;                 ///< file-name prefix
  std::string magic;                ///< header key whose value is 1
  std::vector<std::string> fields;  ///< entry field names, in file order
};

std::string path(const std::string& dir, const Format& format,
                 const std::string& fingerprint);

enum class State { kMissing, kEmpty, kMismatch, kOk };

struct ReadResult {
  State state = State::kMissing;
  /// The header's string fields besides the magic and the fingerprint.
  std::map<std::string, std::string> header;
  /// Entry lines dropped: unparseable, missing a field, failing the
  /// checksum, or rejected by the callback.
  std::size_t corrupt_lines = 0;
};

/// Reads the segment at `path`.  When the header matches (kOk), calls
/// `on_entry` once per intact entry, in file order, with its field values
/// (it may move them out); an entry whose callback throws Error is corrupt.
ReadResult read(
    const std::string& path, const Format& format,
    const std::string& fingerprint,
    const std::function<void(std::vector<std::string>&)>& on_entry);

/// Appends entry lines to one segment through a descriptor held open for
/// its lifetime.  Callers serialize append/sync.
class Appender {
 public:
  /// Creates `path` (and its directory), or truncates it, and writes a
  /// header carrying `extras` in order.  Throws Error(kIo) when it cannot.
  static std::unique_ptr<Appender> create(
      const std::string& path, const Format& format,
      const std::string& fingerprint,
      const std::vector<std::pair<std::string, std::string>>& extras = {});
  /// Opens `path` for appending.  Throws Error(kIo) when it cannot.
  static std::unique_ptr<Appender> open(const std::string& path,
                                        const Format& format);

  ~Appender();
  Appender(const Appender&) = delete;
  Appender& operator=(const Appender&) = delete;

  /// Writes one entry, one value per Format field.  False on failure.
  bool append(std::initializer_list<std::string_view> values);
  /// fsyncs the file.  False on failure.
  bool sync();

 private:
  Appender(int fd, Format format, bool torn);
  bool write_all(std::string_view bytes);

  int fd_;
  Format format_;
  bool torn_;  ///< the file ends without '\n': prefix the next entry
};

}  // namespace nanocache::segment
