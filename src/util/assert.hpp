// Lightweight always-on assertion macro for invariant checking.
//
// Simulation correctness depends on structural invariants (piece sets only
// grow, group populations partition the swarm, ...). These checks are cheap
// relative to event processing, so they stay enabled in release builds.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "util/cxx20_check.hpp"

namespace p2p::detail {

/// `msg` may embed runtime context (e.g. the offending CLI spec,
/// verbatim). It is written whole: an echoed input line may hold a NUL.
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, std::string_view msg) {
  std::fprintf(stderr, "P2P_ASSERT failed: %s\n  at %s:%d\n  ", expr, file,
               line);
  std::fwrite(msg.data(), 1, msg.size(), stderr);
  std::fputc('\n', stderr);
  std::abort();
}

/// A literal message, or none (nullptr): one pointer at the call site.
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  assert_fail(expr, file, line, std::string_view(msg ? msg : ""));
}

}  // namespace p2p::detail

#define P2P_ASSERT(expr)                                              \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::p2p::detail::assert_fail(#expr, __FILE__, __LINE__, nullptr); \
    }                                                                 \
  } while (false)

#define P2P_ASSERT_MSG(expr, msg)                                  \
  do {                                                             \
    if (!(expr)) {                                                 \
      ::p2p::detail::assert_fail(#expr, __FILE__, __LINE__, msg);  \
    }                                                              \
  } while (false)
