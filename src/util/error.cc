#include "util/error.h"

namespace nanocache {

const char* category_name(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::kConfig:
      return "config";
    case ErrorCategory::kNumericDomain:
      return "numeric-domain";
    case ErrorCategory::kIo:
      return "io";
    case ErrorCategory::kInfeasible:
      return "infeasible";
    case ErrorCategory::kInternal:
      return "internal";
  }
  return "internal";
}

namespace {

/// "[category] what": the message every Error carries.
std::string tagged(ErrorCategory category, const std::string& what) {
  std::string message = "[";
  message += category_name(category);
  message += "] ";
  message += what;
  return message;
}

}  // namespace

Error::Error(ErrorCategory category, const std::string& what)
    : std::runtime_error(tagged(category, what)), category_(category) {}

namespace detail {

void throw_require_failure(ErrorCategory category,
                           const std::string& message) {
  throw Error(category, message);
}

}  // namespace detail
}  // namespace nanocache
