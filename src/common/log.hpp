// Warnings on stderr.
//
// The only log surface: the lab reports ignored journals, dropped records
// and lost workers here.  Bench output stays exactly the reproduced tables
// because warnings go to stderr, never stdout.
#pragma once

#include <sstream>
#include <string>
#include <utility>

namespace gridtrust {

/// Emits one "[gridtrust WARN] <message>" line to stderr.
void log_message(const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  static_cast<void>((os << ... << args));  // void: the pack may be empty
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_warn(Args&&... args) {
  log_message(detail::concat(std::forward<Args>(args)...));
}

}  // namespace gridtrust
