// Shared output helpers for the experiment harnesses (E1..E11).
//
// Each bench binary reproduces one artifact of the paper (a figure, a
// worked example, or a headline claim) and prints a self-contained table:
// the paper's prediction next to the measured quantity. EXPERIMENTS.md
// archives one run of each.
#pragma once

#include <sys/resource.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/stability_probe.hpp"
#include "core/stability.hpp"
#include "util/assert.hpp"

namespace p2p::bench {

/// Peak resident set of this process in kB (ru_maxrss is kB on Linux).
inline long peak_rss_kb() {
  rusage usage{};
  P2P_ASSERT(getrusage(RUSAGE_SELF, &usage) == 0);
  return usage.ru_maxrss;
}

/// True when the P2P_SMOKE environment variable is set and nonzero. The
/// smoke_examples CTest label runs every harness this way: tiny replica
/// counts and horizons, so all drivers are built AND executed on every
/// verify without turning the test suite into a benchmark run.
inline bool smoke_mode() {
  const char* env = std::getenv("P2P_SMOKE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// `full` in a normal run, `tiny` under P2P_SMOKE=1.
inline int scaled(int full, int tiny) { return smoke_mode() ? tiny : full; }
inline double scaled(double full, double tiny) {
  return smoke_mode() ? tiny : full;
}

inline void title(const std::string& id, const std::string& what,
                  const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s: %s\n", id.c_str(), what.c_str());
  std::printf("paper: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

inline const char* short_verdict(Stability s) {
  switch (s) {
    case Stability::kPositiveRecurrent:
      return "stable";
    case Stability::kTransient:
      return "transient";
    case Stability::kBorderline:
      return "borderline";
  }
  return "?";
}

inline const char* short_verdict(ProbeVerdict v) {
  switch (v) {
    case ProbeVerdict::kStable:
      return "stable";
    case ProbeVerdict::kUnstable:
      return "unstable";
    case ProbeVerdict::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

/// "yes" iff theory and measurement agree (borderline counts as agreeing
/// with anything, inconclusive with nothing but is flagged).
inline const char* agreement(Stability theory, ProbeVerdict measured) {
  if (theory == Stability::kBorderline) return "n/a";
  if (measured == ProbeVerdict::kInconclusive) return "~";
  const bool match =
      (theory == Stability::kPositiveRecurrent &&
       measured == ProbeVerdict::kStable) ||
      (theory == Stability::kTransient && measured == ProbeVerdict::kUnstable);
  return match ? "yes" : "NO";
}

}  // namespace p2p::bench
