#include "util/json.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/number_format.hpp"

namespace p2p {

void append_json_string(std::string& out, std::string_view s) {
  // The short escapes, and the letter each takes; the other control
  // characters are written \u00XX.
  constexpr std::string_view kEscaped = "\"\\\n\t\r";
  constexpr std::string_view kLetters = "\"\\ntr";
  constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.substr(run, i - run));
    run = i + 1;
    const std::size_t k = kEscaped.find(s[i]);
    if (k != std::string_view::npos) {
      out += '\\';
      out += kLetters[k];
    } else {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  out.append(s.substr(run));
  out += '"';
}

void append_json_number(std::string& out, double value) {
  if (std::isfinite(value)) return format_number_into(out, value);
  out += "null";
}

std::string& JsonWriter::separate(bool is_key) {
  const std::uint8_t layout = layout_[depth_];
  P2P_ASSERT_MSG(is_key == ((layout & kObject) && !after_key_),
                 "JSON object members must alternate key, value");
  if (after_key_) {
    after_key_ = false;
  } else if (!(layout & kBlock)) {
    if (!empty_[depth_]) out_->append(", ");
  } else {
    out_->append(empty_[depth_] ? "\n" : ",\n");
    out_->append(layout & kObject ? 2 : 4, ' ');
  }
  empty_[depth_] = false;
  return *out_;
}

JsonWriter& JsonWriter::open(char bracket, bool block) {
  separate(false) += bracket;
  P2P_ASSERT_MSG(depth_ + 1 < kMaxDepth, "JSON nested too deep");
  P2P_ASSERT_MSG(!block || bracket == '[' || depth_ == 0,
                 "a block object is the outermost value");
  ++depth_;
  layout_[depth_] = (bracket == '{' ? kObject : 0) | (block ? kBlock : 0);
  empty_[depth_] = true;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  const std::uint8_t layout = layout_[depth_];
  P2P_ASSERT_MSG(depth_ > 0 && !after_key_ &&
                     ((layout & kObject) != 0) == (bracket == '}'),
                 "JSON close does not match its open");
  if (layout & kBlock) out_->append(layout & kObject ? "\n" : "\n  ");
  *out_ += bracket;
  if (--depth_ == 0) {
    *out_ += '\n';
    empty_[0] = true;  // the next document starts afresh
  }
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  append_json_string(separate(true), name);
  out_->append(": ");
  after_key_ = true;
  return *this;
}

}  // namespace p2p
