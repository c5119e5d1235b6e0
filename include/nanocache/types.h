// Plain value types shared by the public request/response surface.
//
// Everything in this header is a dumb struct or enum: no internal nanocache
// headers, no model types, no exceptions from the library's internals.  The
// facade (service.h) converts internal results/errors into these types at
// the boundary, so consumers compile against include/nanocache/ alone.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace nanocache::api {

/// Failure taxonomy mirrored across the facade boundary.  Matches the
/// library's internal ErrorCategory one-to-one; the CLI maps these to
/// process exit codes (config=2, io=3, numeric-domain/infeasible=4,
/// internal=1).
enum class ErrorCode {
  kConfig,         ///< malformed request/configuration: fix inputs, retry
  kNumericDomain,  ///< valid request hit a numeric domain violation
  kIo,             ///< filesystem / serialization failure
  kInfeasible,     ///< well-formed request with no satisfying solution
  kInternal,       ///< library invariant violation (a bug)
};

/// Stable lower-case name ("config", "numeric-domain", "io", "infeasible",
/// "internal") used on the wire and in logs.
inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kConfig: return "config";
    case ErrorCode::kNumericDomain: return "numeric-domain";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kInfeasible: return "infeasible";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

/// A typed error crossing the facade boundary.
struct ErrorInfo {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Value-or-typed-error result of every facade call.  Deliberately
/// optional-like (ok / operator bool / value), but a failed Outcome carries
/// an ErrorInfo instead of being empty.  value() on a failed outcome
/// throws std::logic_error — a caller bug, not a service failure.
template <typename T>
class Outcome {
 public:
  Outcome(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  static Outcome failure(ErrorInfo error) {
    Outcome o;
    o.error_ = std::move(error);
    return o;
  }
  static Outcome failure(ErrorCode code, std::string message) {
    return failure(ErrorInfo{code, std::move(message)});
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const {
    if (!value_) {
      throw std::logic_error("Outcome::value() on failed outcome: " +
                             error_.message);
    }
    return *value_;
  }
  T& value() {
    if (!value_) {
      throw std::logic_error("Outcome::value() on failed outcome: " +
                             error_.message);
    }
    return *value_;
  }
  const T& operator*() const { return value(); }
  const T* operator->() const { return &value(); }

  /// Only meaningful when !ok().
  const ErrorInfo& error() const { return error_; }

 private:
  Outcome() = default;
  std::optional<T> value_;
  ErrorInfo error_{};
};

/// Cache level selector.
enum class Level {
  kL1,
  kL2,
};

inline const char* level_name(Level level) {
  return level == Level::kL2 ? "l2" : "l1";
}

/// Inverse of level_name; nullopt for any other spelling.
inline std::optional<Level> level_from_name(std::string_view name) {
  for (const Level level : {Level::kL1, Level::kL2}) {
    if (name == level_name(level)) return level;
  }
  return std::nullopt;
}

/// The paper's three Vth/Tox assignment schemes (Section 4).
enum class SchemeId {
  kI,    ///< per-component pairs
  kII,   ///< array pair + shared periphery pair
  kIII,  ///< one uniform pair
};

inline const char* scheme_id_name(SchemeId scheme) {
  switch (scheme) {
    case SchemeId::kI: return "I";
    case SchemeId::kII: return "II";
    case SchemeId::kIII: return "III";
  }
  return "II";
}

/// Inverse of scheme_id_name; nullopt for any other spelling.
inline std::optional<SchemeId> scheme_id_from_name(std::string_view name) {
  for (const SchemeId id : {SchemeId::kI, SchemeId::kII, SchemeId::kIII}) {
    if (name == scheme_id_name(id)) return id;
  }
  return std::nullopt;
}

/// One (Vth, Tox) knob pair.  Vth in volts, Tox in Angstrom — the units the
/// paper quotes.
struct Knobs {
  double vth_v = 0.35;
  double tox_a = 12.0;
};

/// A knob pair assigned to one named cache component.
struct ComponentKnobs {
  std::string component;  ///< "cell-array", "decoder", ...
  Knobs knobs{};
  /// v3: true when the optimizer parked this component in its power-gated
  /// sleep state (only ever set when the request enabled power gating).
  bool gated = false;
};

}  // namespace nanocache::api
