// Shared low-level parsing for the engine's CLI spec grammars
// (axis specs, refine specs, scenario specs) and the report and event-log
// readers: one full-consumption decimal parser and one separator
// splitter, so the grammars cannot drift apart on locale/whitespace/
// partial-token handling.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/assert.hpp"

namespace p2p::engine {

/// The tree's one decimal parser. The token must have the shape of a
/// plain decimal — an optional leading '-', then a digit — which gates
/// the word spellings ("nan", "inf", "infinity"), '+' signs, leading
/// whitespace and ".5"-style fractions; then std::from_chars
/// (locale-free, no allocation) must consume it whole, and the result
/// must be finite and in range. Hex floats ("0x10") stop at the 'x',
/// overflow ("1e400") and underflow to zero ("1e-400") report out of
/// range, so all three are rejected. Returns false instead of aborting
/// so callers can build their message only on failure.
inline bool parse_plain_decimal(std::string_view token, double* value) {
  const bool negative = token.size() > 1 && token[0] == '-';
  const std::string_view digits = token.substr(negative ? 1 : 0);
  if (digits.empty() || digits[0] < '0' || digits[0] > '9') return false;
  // Short integers ("0", "1", "-3", cell indices) are most report cells;
  // below 10^15 they are exact doubles, so summing digits gives
  // from_chars's result without its general machinery.
  if (digits.size() <= 15) {
    std::uint64_t n = 0;
    bool integral = true;
    for (const char c : digits) {
      integral = integral && c >= '0' && c <= '9';
      n = n * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (integral) {
      *value = negative ? -static_cast<double>(n) : static_cast<double>(n);
      return true;
    }
  }
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  return ec == std::errc() && ptr == end && std::isfinite(*value);
}

/// Parses one number token. `spec` is the enclosing CLI spec, echoed
/// verbatim on failure so the user sees which argument is bad. When
/// `allow_inf`, the literal token "inf" (exactly that spelling) parses to
/// +infinity; every other spelling must pass parse_plain_decimal — "1x",
/// "", " 2", "nan", "infinity", "INF", "0x1p3" and out-of-range decimals
/// all abort.
inline double parse_number(const std::string& token, const std::string& spec,
                           bool allow_inf, const char* what) {
  if (allow_inf && token == "inf") {
    return std::numeric_limits<double>::infinity();
  }
  double v = 0;
  P2P_ASSERT_MSG(parse_plain_decimal(token, &v),
                 std::string(what) + " (got \"" + spec + "\")");
  return v;
}

/// Splits `body` at every `sep` (no escaping; empty pieces preserved).
inline std::vector<std::string> split_list(const std::string& body,
                                           char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = body.find(sep, start);
    out.push_back(body.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

}  // namespace p2p::engine
