// The per-verdict JSON objects of the tools' summaries, keyed by each
// Stability's report token (to_string).
#pragma once

#include <cstddef>

#include "core/stability.hpp"
#include "util/json.hpp"

namespace p2p {

/// Writes a count, or an inline array of counts (nested arrays nest).
inline void write_counts(JsonWriter& json, std::size_t n) { json.integer(n); }
template <typename T, std::size_t N>
void write_counts(JsonWriter& json, const T (&counts)[N]) {
  json.begin_array();
  for (const T& c : counts) write_counts(json, c);
  json.end_array();
}

/// Writes `key` as an object holding rows[v] under each verdict v's token.
template <typename Rows>
JsonWriter& per_verdict(JsonWriter& json, const char* key, const Rows& rows) {
  json.key(key).begin_object();
  for (int v = 0; v < 3; ++v) {
    write_counts(json.key(to_string(static_cast<Stability>(v))), rows[v]);
  }
  return json.end_object();
}

}  // namespace p2p
