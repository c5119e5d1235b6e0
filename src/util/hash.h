// Stable content hashing shared by the persistent result cache and the
// surrogate table store.  FNV-1a is deliberate: the fingerprint is a file
// naming / corruption-detection device, not a security boundary, and the
// 16-hex-digit output must stay byte-stable across platforms and releases
// because it is embedded in on-disk segment names.  `key_double` renders
// doubles for the canonical request and memo keys in the same hex form.
#pragma once

#include <string>
#include <string_view>

namespace nanocache {

/// 64-bit FNV-1a over `s`, rendered as 16 lowercase hex digits.
std::string fnv1a64_hex(std::string_view s);

/// Bit pattern of `d` as 16 lowercase hex digits: keys match on structural
/// identity, not decimal identity.
std::string key_double(double d);

}  // namespace nanocache
