#include "util/segment.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/error.h"
#include "util/hash.h"
#include "util/json.h"

namespace nanocache::segment {

namespace {

/// FNV-1a-64 hex over the values joined by '\n'.
template <typename Values>
std::string checksum(const Values& values) {
  std::string joined;
  for (const auto& v : values) joined.append(v).push_back('\n');
  if (!joined.empty()) joined.pop_back();
  return fnv1a64_hex(joined);
}

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw Error(ErrorCategory::kIo, "cannot " + what + " segment '" + path +
                                      "': " + std::strerror(errno));
}

}  // namespace

std::string path(const std::string& dir, const Format& format,
                 const std::string& fingerprint) {
  return (std::filesystem::path(dir) /
          (format.name + "-" + fingerprint + ".jsonl"))
      .string();
}

ReadResult read(
    const std::string& path, const Format& format,
    const std::string& fingerprint,
    const std::function<void(std::vector<std::string>&)>& on_entry) {
  ReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return result;
  std::string line;
  if (!std::getline(in, line)) {
    result.state = State::kEmpty;
    return result;
  }
  result.state = State::kMismatch;
  try {
    const auto root = json::parse(line);
    const auto magic = root->get(format.magic);
    const auto fp = root->get("fingerprint");
    if (!magic || magic->as_int() != 1 || !fp ||
        fp->as_string() != fingerprint) {
      return result;
    }
    for (const auto& [key, value] : root->as_object()) {
      if (key != format.magic && key != "fingerprint" && value->is_string()) {
        result.header[key] = value->as_string();
      }
    }
  } catch (const Error&) {
    return result;  // garbage header
  }
  result.state = State::kOk;

  std::vector<std::string> values(format.fields.size());
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const auto root = json::parse(line);
      for (std::size_t i = 0; i < values.size(); ++i) {
        const auto field = root->get(format.fields[i]);
        NC_REQUIRE(field != nullptr, "segment entry is missing a field");
        values[i] = field->as_string();
      }
      const auto stored = root->get("checksum");
      NC_REQUIRE(stored && stored->as_string() == checksum(values),
                 "segment entry checksum mismatch");
      on_entry(values);
    } catch (const Error&) {
      ++result.corrupt_lines;
    }
  }
  return result;
}

std::unique_ptr<Appender> Appender::create(
    const std::string& path, const Format& format,
    const std::string& fingerprint,
    const std::vector<std::pair<std::string, std::string>>& extras) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) throw_io("create", path);
  std::unique_ptr<Appender> appender(new Appender(fd, format, false));
  std::string header = "{" + json::quote(format.magic) +
                       ":1,\"fingerprint\":" + json::quote(fingerprint);
  for (const auto& [key, value] : extras) {
    header += ',' + json::quote(key) + ':' + json::quote(value);
  }
  if (!appender->write_all(header + "}\n")) throw_io("write", path);
  return appender;
}

std::unique_ptr<Appender> Appender::open(const std::string& path,
                                         const Format& format) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) throw_io("append to", path);
  bool torn = false;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    char last = '\n';
    torn = ::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n';
  }
  return std::unique_ptr<Appender>(new Appender(fd, format, torn));
}

Appender::Appender(int fd, Format format, bool torn)
    : fd_(fd), format_(std::move(format)), torn_(torn) {}

Appender::~Appender() { ::close(fd_); }

bool Appender::append(std::initializer_list<std::string_view> values) {
  NC_REQUIRE_INTERNAL(values.size() == format_.fields.size(),
                      "segment entry needs one value per field");
  const std::size_t last = values.size() - 1;
  std::string line = torn_ ? "\n{" : "{";
  for (std::size_t i = 0; i <= last; ++i) {
    if (i == last) {
      line += "\"checksum\":" + json::quote(checksum(values)) + ',';
    }
    line += json::quote(format_.fields[i]) + ':' +
            json::quote(values.begin()[i]) + (i == last ? "}\n" : ",");
  }
  if (!write_all(line)) return false;
  torn_ = false;
  return true;
}

bool Appender::sync() { return ::fsync(fd_) == 0; }

bool Appender::write_all(std::string_view bytes) {
  // One write per line; a short write (disk full) fails the append and
  // leaves a torn line that the next Appender terminates.
  return ::write(fd_, bytes.data(), bytes.size()) ==
         static_cast<ssize_t>(bytes.size());
}

}  // namespace nanocache::segment
