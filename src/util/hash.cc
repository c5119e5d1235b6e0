#include "util/hash.h"

#include <bit>
#include <cstdint>

namespace nanocache {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[16];
  static const char* hex = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = hex[(v >> (i * 4)) & 0xF];
  }
  return std::string(buf, sizeof buf);
}

}  // namespace

std::string fnv1a64_hex(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return hex16(h);
}

std::string key_double(double d) {
  return hex16(std::bit_cast<std::uint64_t>(d));
}

}  // namespace nanocache
