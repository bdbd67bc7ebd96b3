// The one JSON writer behind every summary, advisory, event line and
// bench file; report rows escape strings and spell numbers with the same
// two helpers. Numbers go through format_number, with NaN and +-inf
// written as null; integers keep std::to_string's digits.
//
// Layout follows structure. A block object (a multi-line document's
// outermost value) puts each member on its own line, indented 2 spaces.
// A block array puts each element on its own line, indented 4 spaces,
// and closes with "\n  ]" (empty: "[\n  ]"). Every other container is
// inline: {"a": 1, "b": [2, 3]}. Closing the outermost value appends
// '\n', so a document and a JSON-lines record both end a line.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace p2p {

/// Appends the JSON string literal for `s`: quoted, with '"', '\\' and
/// control characters escaped.
void append_json_string(std::string& out, std::string_view s);

/// Appends format_number(value), or null when `value` is NaN or +-inf.
void append_json_number(std::string& out, double value);

/// Scans the number at text[*pos] past its last byte and returns nullptr,
/// or returns what is wrong with `*pos` at the offending byte. Grammar:
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
inline const char* scan_json_number(std::string_view text, std::size_t* pos) {
  std::size_t& p = *pos;
  const auto take = [&](char a, char b) {  // consumes an `a` or a `b`
    const bool hit = p < text.size() && (text[p] == a || text[p] == b);
    p += hit;
    return hit;
  };
  const auto digits = [&] {
    const std::size_t first = p;
    while (p < text.size() && text[p] >= '0' && text[p] <= '9') ++p;
    return p > first;
  };
  constexpr const char* kMalformed = "malformed JSON number";
  take('-', '-');
  // A leading zero stands alone.
  if (!take('0', '0') && !digits()) return kMalformed;
  if (take('.', '.') && !digits()) return kMalformed;
  if (take('e', 'E') && (take('+', '-'), !digits())) return kMalformed;
  return nullptr;
}

/// Appends one JSON value to a caller-owned string in place: no
/// temporary per value. Calls chain: json.begin_object().key("t")
/// .number(0.5).end_object(). Misnesting aborts.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(&out) {}

  JsonWriter& begin_object() { return open('{', false); }
  JsonWriter& begin_block_object() { return open('{', true); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', false); }
  JsonWriter& begin_block_array() { return open('[', true); }
  JsonWriter& end_array() { return close(']'); }

  /// The next member's key; its value follows.
  JsonWriter& key(std::string_view name);
  JsonWriter& number(double value) {
    append_json_number(separate(false), value);
    return *this;
  }
  /// The integer's exact digits: 12000000, where number() gives 1.2e+07.
  template <typename Int>
  JsonWriter& integer(Int value) {
    static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
    char buf[24];
    return verbatim({buf, std::to_chars(buf, std::end(buf), value).ptr});
  }
  JsonWriter& string(std::string_view value) {
    append_json_string(separate(false), value);
    return *this;
  }
  JsonWriter& boolean(bool value) { return verbatim(value ? "true" : "false"); }
  JsonWriter& null() { return verbatim("null"); }

 private:
  enum : std::uint8_t { kObject = 1, kBlock = 2 };  // layout_ bits
  static constexpr int kMaxDepth = 8;

  JsonWriter& open(char bracket, bool block);
  JsonWriter& close(char bracket);
  JsonWriter& verbatim(std::string_view token) {
    separate(false).append(token);
    return *this;
  }
  /// Appends the separator due before a key or value; returns the output.
  std::string& separate(bool is_key);

  std::string* out_;
  bool after_key_ = false;
  int depth_ = 0;  // open containers; level 0 is the document
  std::uint8_t layout_[kMaxDepth] = {};
  bool empty_[kMaxDepth] = {true};  // whether each level holds nothing yet
};

}  // namespace p2p
