#include "djstar/core/thread_count.hpp"

#include <stdexcept>
#include <string>
#include <thread>

#include "djstar/support/env.hpp"

namespace djstar::core {

unsigned parse_thread_count(std::string_view text) {
  // Values above kMaxThreads clamp to it, however many digits they have.
  namespace env = support::env;
  const auto v = env::parse_uint(env::trim(text), kMaxThreads);
  if (!v) {
    throw std::invalid_argument("invalid thread count '" + std::string(text) +
                                "' (expected a non-negative integer; 0 = "
                                "auto)");
  }
  return static_cast<unsigned>(*v);
}

unsigned resolve_thread_count(unsigned requested) {
  unsigned n = requested;
  if (auto env = support::env::get("DJSTAR_THREADS")) {
    n = parse_thread_count(*env);
  }
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;  // the standard allows "unknown"
  }
  if (n > kMaxThreads) n = kMaxThreads;
  return n;
}

}  // namespace djstar::core
