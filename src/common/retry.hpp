// Error classification and the exponential backoff schedule.
//
// The lab sweep engine records every failed (cell, replication) unit with
// its error class, and the shard supervisor triages dead workers by the
// same taxonomy: resource/system errors are transient (a respawned worker
// may succeed, after a backoff), logic and precondition errors are
// deterministic (a pure function fails identically, so nothing re-runs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>

namespace gridtrust {

/// Coarse taxonomy of a caught exception, stable enough to serialize.
enum class ErrorClass {
  kPrecondition,  ///< gridtrust::PreconditionError — bad input, deterministic
  kInvariant,     ///< gridtrust::InvariantError — a library bug, deterministic
  kResource,      ///< bad_alloc / system_error — transient under load
  kTimeout,       ///< ETIMEDOUT, or a worker that missed its heartbeats
  kUnknown,       ///< any other std::exception (or a non-exception throw)
};

/// Classifies a caught exception; call inside a catch block with
/// std::current_exception().  Never throws.
ErrorClass classify_error(const std::exception_ptr& error) noexcept;

/// Classifies a raw errno value: exhaustion errnos (ENOSPC, EMFILE, ENFILE,
/// EAGAIN, ENOMEM, EINTR) are `resource`, ETIMEDOUT is `timeout`, anything
/// else is `unknown`.  classify_error applies this to std::system_error
/// codes so an fsync that hits a full disk triages as transient.  Never
/// throws.
ErrorClass classify_errno(int err) noexcept;

/// Extracts what() from a caught exception ("<non-standard exception>"
/// otherwise).  Never throws.
std::string describe_error(const std::exception_ptr& error) noexcept;

/// Serialized form used in manifests ("precondition", "invariant",
/// "resource", "timeout", "unknown") and its inverse.
std::string to_string(ErrorClass error_class);
ErrorClass parse_error_class(const std::string& text);

/// True for classes where re-running the same pure computation can
/// plausibly succeed (so a respawn after a backoff is worthwhile).
bool is_transient(ErrorClass error_class);

/// The backoff schedule between the shard supervisor's respawns of one
/// worker slot.
struct RetryPolicy {
  /// Backoff before retry k (1-based) of a *transient* failure:
  /// min(backoff_initial_ms * backoff_factor^(k-1), backoff_max_ms).
  std::uint64_t backoff_initial_ms = 10;
  double backoff_factor = 2.0;
  std::uint64_t backoff_max_ms = 2000;

  /// The backoff (milliseconds) to sleep before retry `retry_index`
  /// (1-based) of a failure of `error_class`; 0 for deterministic classes.
  std::uint64_t backoff_ms(std::size_t retry_index,
                           ErrorClass error_class) const;
};

}  // namespace gridtrust
