#include "common/log.hpp"

#include <iostream>

#include "common/sync.hpp"

namespace gridtrust {

namespace {

// Serializes whole lines onto stderr; guards the stream, not data.
Mutex g_io_mutex;

}  // namespace

void log_message(const std::string& message) {
  const MutexLock lock(&g_io_mutex);
  std::cerr << "[gridtrust WARN] " << message << "\n";
}

}  // namespace gridtrust
