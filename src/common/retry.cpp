#include "common/retry.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <new>
#include <system_error>

#include "common/error.hpp"

namespace gridtrust {

ErrorClass classify_errno(int err) noexcept {
  switch (err) {
    case ENOSPC:
    case EMFILE:
    case ENFILE:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case ENOMEM:
    case EINTR:
      return ErrorClass::kResource;
    case ETIMEDOUT:
      return ErrorClass::kTimeout;
    default:
      return ErrorClass::kUnknown;
  }
}

ErrorClass classify_error(const std::exception_ptr& error) noexcept {
  if (!error) return ErrorClass::kUnknown;
  try {
    std::rethrow_exception(error);
  } catch (const PreconditionError&) {
    return ErrorClass::kPrecondition;
  } catch (const InvariantError&) {
    return ErrorClass::kInvariant;
  } catch (const std::bad_alloc&) {
    return ErrorClass::kResource;
  } catch (const std::system_error& e) {
    // ETIMEDOUT deserves the timeout class (distinct triage copy in
    // manifests); every other errno stays resource — system errors are
    // transient by default.
    return classify_errno(e.code().value()) == ErrorClass::kTimeout
               ? ErrorClass::kTimeout
               : ErrorClass::kResource;
  } catch (const std::exception& e) {
    // Fallback for errno text smuggled through a plain exception type
    // (e.g. a wrapped strerror message): without this, an out-of-disk
    // failure surfacing as runtime_error would classify unknown.
    try {
      const std::string what = e.what();
      static const char* const kResourceTokens[] = {
          "No space left on device",           // ENOSPC
          "Too many open files",               // EMFILE / ENFILE
          "Resource temporarily unavailable",  // EAGAIN
          "Cannot allocate memory",            // ENOMEM
      };
      for (const char* token : kResourceTokens) {
        if (what.find(token) != std::string::npos) {
          return ErrorClass::kResource;
        }
      }
    } catch (...) {
    }
    return ErrorClass::kUnknown;
  } catch (...) {
    return ErrorClass::kUnknown;
  }
}

std::string describe_error(const std::exception_ptr& error) noexcept {
  if (!error) return "<no exception>";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    try {
      return e.what();
    } catch (...) {
      return "<unprintable exception>";
    }
  } catch (...) {
    return "<non-standard exception>";
  }
}

std::string to_string(ErrorClass error_class) {
  switch (error_class) {
    case ErrorClass::kPrecondition: return "precondition";
    case ErrorClass::kInvariant: return "invariant";
    case ErrorClass::kResource: return "resource";
    case ErrorClass::kTimeout: return "timeout";
    case ErrorClass::kUnknown: return "unknown";
  }
  return "unknown";
}

ErrorClass parse_error_class(const std::string& text) {
  if (text == "precondition") return ErrorClass::kPrecondition;
  if (text == "invariant") return ErrorClass::kInvariant;
  if (text == "resource") return ErrorClass::kResource;
  if (text == "timeout") return ErrorClass::kTimeout;
  GT_REQUIRE(text == "unknown", "unknown error class: " + text);
  return ErrorClass::kUnknown;
}

bool is_transient(ErrorClass error_class) {
  return error_class == ErrorClass::kResource ||
         error_class == ErrorClass::kTimeout ||
         error_class == ErrorClass::kUnknown;
}

std::uint64_t RetryPolicy::backoff_ms(std::size_t retry_index,
                                      ErrorClass error_class) const {
  GT_REQUIRE(retry_index >= 1, "retry_index is 1-based");
  if (!is_transient(error_class)) return 0;
  double delay = static_cast<double>(backoff_initial_ms) *
                 std::pow(backoff_factor, static_cast<double>(retry_index - 1));
  delay = std::min(delay, static_cast<double>(backoff_max_ms));
  return static_cast<std::uint64_t>(delay);
}

}  // namespace gridtrust
