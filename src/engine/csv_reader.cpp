#include "engine/csv_reader.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "engine/parse_util.hpp"
#include "engine/refine.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace p2p::engine {

bool parse_report_number(std::string_view cell, double* value) {
  if (cell == "nan") {
    *value = std::nan("");
  } else if (cell == "inf") {
    *value = std::numeric_limits<double>::infinity();
  } else if (cell == "-inf") {
    *value = -std::numeric_limits<double>::infinity();
  } else {
    return parse_plain_decimal(cell, value);
  }
  return true;
}

std::string report_number_error(std::string_view cell,
                                std::string_view context) {
  std::string out = "expected a report number (format_number dialect), got \"";
  out += cell;
  out += "\" in ";
  out += context;
  return out;
}

double parse_report_number(std::string_view cell, std::string_view context) {
  double v = 0;
  P2P_ASSERT_MSG(parse_report_number(cell, &v),
                 report_number_error(cell, context));
  return v;
}

namespace {

/// At most this many bytes of an offending line are echoed in aborts —
/// enough to identify the row, without dumping a megabyte cell.
constexpr std::size_t kErrorPreview = 200;

std::string preview_of(std::string_view text) {
  const std::size_t line_end = std::min(text.find('\n'), text.size());
  std::string out(text.substr(0, std::min(line_end, kErrorPreview)));
  if (line_end > kErrorPreview) out += "...";
  return out;
}

/// Read chunk size: matches the writer's flush threshold.
constexpr std::size_t kReadChunk = 1 << 16;

constexpr std::string_view kTruncated =
    "truncated report CSV: final record has no terminating newline (or an "
    "unterminated quoted cell)";

/// The reader's abort text: `what`, then the source, where in it (a CSV
/// record's "line" or a JSON "byte" offset) and the bytes from there.
std::string input_error(std::string_view what, const std::string& source,
                        const char* unit, std::size_t at,
                        std::string_view text) {
  return std::string(what) + " (" + source + " " + unit + " " +
         std::to_string(at) + ": \"" + preview_of(text) + "\")";
}

std::string arity_error(std::size_t got, std::size_t want) {
  return "report CSV row has " + std::to_string(got) + " cells, expected " +
         std::to_string(want);
}

/// How far find_record_end has classified one record, so that a record
/// outgrowing the bytes read so far resumes after a refill where the
/// scan stopped instead of at its first byte: a long quoted cell costs
/// linear time, not one rescan per read.
struct RecordScan {
  std::size_t done = 0;     // bytes of the record classified so far
  bool quoted = false;      // the record has a '"' (only then can it hold
                            // a newline of its own)
  bool in_quotes = false;   // inside a quoted cell
  bool cell_start = true;   // the next byte starts a cell
};

/// Finds the '\n' that ends the record starting at `from` in `text`;
/// npos when the record is not complete in `text`, with `*scan` saying
/// where to resume once more bytes follow (the record's start may move,
/// its offsets in `*scan` do not). `more` says bytes may follow `text`,
/// so a quote on its last byte cannot be classified yet.
///
/// A record with no '"' before its first '\n' ends there: two memchr
/// calls. Otherwise a state machine tracks quoted cells, which may span
/// newlines. A '"' opens a quoted cell only at a cell boundary — a bare
/// quote mid-cell is data to the scanner and a loud split error later,
/// never a silent swallow-the-rest-of-the-file state.
std::size_t find_record_end(std::string_view text, std::size_t from,
                            bool more, RecordScan* scan) {
  const char* base = text.data();
  std::size_t i = from + scan->done;
  if (!scan->quoted) {
    const auto* nl = static_cast<const char*>(
        std::memchr(base + i, '\n', text.size() - i));
    const std::size_t stop = nl != nullptr ? nl - base : text.size();
    const auto* quote =
        static_cast<const char*>(std::memchr(base + i, '"', stop - i));
    if (quote == nullptr) {
      if (nl != nullptr) return stop;
      scan->done = text.size() - from;
      return std::string_view::npos;
    }
    // The quote-free bytes before the first '"' only decide whether it
    // sits at a cell boundary.
    i = static_cast<std::size_t>(quote - base);
    scan->quoted = true;
    scan->cell_start = i == from || text[i - 1] == ',';
  }
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (scan->in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          ++i;  // doubled quote: stay inside the cell
        } else if (i + 1 == text.size() && more) {
          break;  // cannot tell yet: resume at this quote after a refill
        } else {
          scan->in_quotes = false;
        }
      }
    } else if (c == '"' && scan->cell_start) {
      scan->in_quotes = true;
      scan->cell_start = false;
    } else if (c == ',') {
      scan->cell_start = true;
    } else if (c == '\n') {
      return i;
    } else {
      scan->cell_start = false;
    }
  }
  scan->done = i - from;
  return std::string_view::npos;
}

constexpr std::uint64_t kOnes = 0x0101010101010101ULL;

/// The high bit of every byte of `word` equal to `pattern`'s bytes (one
/// byte repeated): the exact zero-byte test over word ^ pattern.
std::uint64_t byte_hits(std::uint64_t word, std::uint64_t pattern) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  const std::uint64_t t = word ^ pattern;
  return ~(((t & kLow7) + kLow7) | t | kLow7);
}

/// Splits a quote-free record at every ','. Eight bytes at a time on
/// little-endian hosts: the exact zero-byte test over (word ^ ",,,,")
/// marks each comma's byte with its high bit, so a row of short numeric
/// cells costs a few word operations per cell instead of a branch per
/// byte.
void split_unquoted(std::string_view record,
                    std::vector<std::string_view>* cells) {
  const char* p = record.data();
  const char* const end = p + record.size();
  const char* cell = p;
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t kCommas = kOnes * ',';
    for (; end - p >= 8; p += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p, sizeof(word));
      std::uint64_t hits = byte_hits(word, kCommas);
      while (hits != 0) {
        const char* comma = p + std::countr_zero(hits) / 8;
        cells->emplace_back(cell, static_cast<std::size_t>(comma - cell));
        cell = comma + 1;
        hits &= hits - 1;
      }
    }
  }
  for (; p != end; ++p) {
    if (*p == ',') {
      cells->emplace_back(cell, static_cast<std::size_t>(p - cell));
      cell = p + 1;
    }
  }
  cells->emplace_back(cell, static_cast<std::size_t>(end - cell));
}

/// Splits one record (without its '\n') into cells, enforcing the
/// writer's quoting discipline; nullptr on success, else what is wrong.
/// `quoted` is find_record_end's flag: a quote-free record splits at
/// every ',' with no per-byte state. Quoted cells are views between
/// their quotes unless they hold doubled quotes; those are unescaped
/// into `scratch`, reserved to the record's size first so no view into
/// it moves.
const char* split_record(std::string_view record, bool quoted,
                         std::vector<std::string_view>* cells,
                         std::string* scratch) {
  cells->clear();
  if (!quoted) {
    split_unquoted(record, cells);
    return nullptr;
  }
  scratch->clear();
  scratch->reserve(record.size());
  std::size_t i = 0;
  while (true) {
    if (i < record.size() && record[i] == '"') {
      const std::size_t open = ++i;
      bool escaped = false;
      while (true) {
        if (i >= record.size()) {
          // The closing quote can only be missing here if the record
          // terminator itself sat inside the quotes — find_record_end
          // would have skipped it — so this is a stray state.
          return "unterminated quoted cell in report CSV";
        }
        if (record[i] == '"') {
          if (i + 1 < record.size() && record[i + 1] == '"') {
            escaped = true;
            i += 2;
          } else {
            break;
          }
        } else {
          ++i;
        }
      }
      const std::string_view body = record.substr(open, i - open);
      ++i;  // closing quote
      if (!escaped) {
        cells->push_back(body);
      } else {
        const std::size_t start = scratch->size();
        for (std::size_t j = 0; j < body.size(); ++j) {
          scratch->push_back(body[j]);
          if (body[j] == '"') ++j;  // "" -> "
        }
        cells->emplace_back(scratch->data() + start, scratch->size() - start);
      }
      if (i < record.size() && record[i] != ',') {
        return "malformed quoting in report CSV: a quoted cell must be "
               "followed by a comma or the end of the record";
      }
    } else {
      const std::size_t start = i;
      while (i < record.size() && record[i] != ',') {
        if (record[i] == '"') {
          return "malformed quoting in report CSV: bare '\"' inside an "
                 "unquoted cell";
        }
        ++i;
      }
      cells->push_back(record.substr(start, i - start));
    }
    if (i >= record.size()) return nullptr;
    ++i;  // skip ','
  }
}

/// Lines a record spans: one, plus the newlines inside quoted cells.
std::size_t record_lines(std::string_view record, bool quoted) {
  return quoted ? 1 + static_cast<std::size_t>(
                          std::count(record.begin(), record.end(), '\n'))
                : 1;
}

/// JSON whitespace: the bytes a report JSON may carry between tokens.
bool json_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

void skip_json_space(std::string_view text, std::size_t* pos) {
  while (*pos < text.size() && json_space(text[*pos])) ++*pos;
}

constexpr const char* kUnexpectedEnd = "unexpected end of JSON document";

// The JSON token grammar, shared by the report cursor and validate_json;
// numbers use util/json.hpp's scan_json_number. Each scanner advances
// `*pos` past its token and returns nullptr, or returns what is wrong
// with `*pos` at the offending byte — the end of `text` when the token
// ran off it, so a caller holding a prefix of the document can tell
// "malformed" from "read more".

/// A string (text[*pos] is its opening '"'); `*escaped` tells whether
/// its body holds an escape.
const char* scan_json_string(std::string_view text, std::size_t* pos,
                             bool* escaped) {
  std::size_t& p = *pos;
  *escaped = false;
  for (++p;; ++p) {
    while (p < text.size() && text[p] != '"' && text[p] != '\\' &&
           static_cast<unsigned char>(text[p]) >= 0x20) {
      ++p;  // plain bytes, most of any string
    }
    if (p >= text.size()) return "unterminated JSON string";
    const char c = text[p];
    if (c == '"') {
      ++p;
      return nullptr;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return "unescaped control character in JSON string";
    }
    if (c != '\\') continue;
    *escaped = true;
    if (++p >= text.size()) return "unterminated JSON escape";
    if (text[p] == 'u') {
      for (int h = 0; h < 4; ++h) {
        if (++p >= text.size() ||
            !std::isxdigit(static_cast<unsigned char>(text[p]))) {
          return "malformed \\u escape";
        }
      }
    } else if (std::string_view("\"\\/bfnrt").find(text[p]) ==
               std::string_view::npos) {
      return "invalid JSON escape";
    }
  }
}

/// Appends the unescaped `body` of a string scan_json_string accepted.
/// \uXXXX decodes to UTF-8 for the basic plane (the writer emits \u00xx
/// for raw control characters); a surrogate is an error — the emitter
/// never splits astral characters, it passes their UTF-8 through.
const char* unescape_json_string(std::string_view body, std::string* out) {
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] != '\\') {
      out->push_back(body[i]);
      continue;
    }
    const char e = body[++i];
    if (const std::size_t k = std::string_view("bfnrt").find(e);
        k != std::string_view::npos) {
      out->push_back("\b\f\n\r\t"[k]);
      continue;
    }
    if (e != 'u') {
      out->push_back(e);  // '"', '\\' or '/'
      continue;
    }
    unsigned code = 0;
    for (int h = 0; h < 4; ++h) {
      const char d = body[++i];
      code = code * 16 +
             static_cast<unsigned>(d <= '9' ? d - '0' : (d | 0x20) - 'a' + 10);
    }
    if (code >= 0xD800 && code <= 0xDFFF) {
      return "surrogate \\u escapes are not part of the report JSON dialect";
    }
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
      continue;
    }
    if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    }
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
  return nullptr;
}

/// Scans the string at text[*pos] into `*out`: a view of its body or,
/// when it holds escapes, of its unescaped bytes appended to `scratch`.
/// Unescaping never lengthens a string, so reserving the bytes left in
/// `text` at a row's first escape keeps every view into `scratch` put.
const char* json_string_cell(std::string_view text, std::size_t* pos,
                             std::string* scratch, std::string_view* out) {
  const std::size_t open = *pos;
  bool escaped = false;
  if (const char* what = scan_json_string(text, pos, &escaped)) return what;
  *out = text.substr(open + 1, *pos - open - 2);
  if (!escaped) return nullptr;
  if (scratch->empty()) scratch->reserve(text.size() - open);
  const std::size_t start = scratch->size();
  if (const char* what = unescape_json_string(*out, scratch)) {
    *pos = open;
    return what;
  }
  *out = std::string_view(scratch->data() + start, scratch->size() - start);
  return nullptr;
}

constexpr const char* kKeysDiffer =
    "report JSON row keys do not match the first row's columns (same "
    "names, same order, same count)";

/// Parses the report JSON row object at text[*pos], after whitespace:
/// its keys must be `columns`, in order, or are collected into `keys`
/// (the first row names the columns). A key whose bytes equal its
/// `key_bytes` entry (the writer's layout) skips the general grammar.
const char* parse_json_row(std::string_view text, std::size_t* pos,
                           const std::vector<std::string>& columns,
                           const std::vector<std::string>& key_bytes,
                           std::vector<std::string>* keys,
                           std::vector<std::string_view>* cells,
                           std::string* scratch) {
  std::size_t& p = *pos;
  cells->clear();
  scratch->clear();
  skip_json_space(text, &p);
  for (std::size_t i = 0;; ++i) {
    if (i < key_bytes.size() &&
        text.substr(p, key_bytes[i].size()) == key_bytes[i]) {
      p += key_bytes[i].size();
    } else {
      if (i == 0) {
        if (p >= text.size() || text[p] != '{') return "expected '{'";
        ++p;
      }
      skip_json_space(text, &p);
      if (p >= text.size()) return kUnexpectedEnd;
      if (text[p] == '}') {
        ++p;
        break;
      }
      if (i > 0) {
        if (text[p] != ',') return "expected '}'";
        ++p;
        skip_json_space(text, &p);
      }
      if (p >= text.size() || text[p] != '"') return "expected '\"'";
      const std::size_t key_at = p;
      std::string unescaped;
      std::string_view key;
      if (const char* what = json_string_cell(text, &p, &unescaped, &key)) {
        return what;
      }
      if (keys != nullptr) {
        keys->emplace_back(key);
      } else if (i >= columns.size() || key != columns[i]) {
        p = key_at;
        return kKeysDiffer;
      }
      skip_json_space(text, &p);
      if (p >= text.size() || text[p] != ':') return "expected ':'";
      ++p;
    }
    skip_json_space(text, &p);
    if (p >= text.size()) return kUnexpectedEnd;
    std::string_view cell;
    const char c = text[p];
    if (c == '"') {
      if (const char* what = json_string_cell(text, &p, scratch, &cell)) {
        return what;
      }
    } else if (c == 'n') {
      const std::string_view word = text.substr(p, 4);
      if (word != "null") {
        if (std::string_view("null").starts_with(word)) p = text.size();
        return "malformed JSON literal (expected \"null\")";
      }
      p += word.size();
      // The emitter maps every non-finite cell to null; nan is the only
      // spelling that maps back without inventing a sign.
      cell = "nan";
    } else if (c == '{' || c == '[' || c == 't' || c == 'f') {
      return "report cells must be numbers, strings or null";
    } else {
      const std::size_t start = p;
      if (const char* what = scan_json_number(text, &p)) return what;
      cell = text.substr(start, p - start);
    }
    cells->push_back(cell);
  }
  if (keys != nullptr ? keys->empty() : cells->size() != columns.size()) {
    --p;  // at the '}'
    return keys != nullptr ? "report JSON rows need at least one column"
                           : kKeysDiffer;
  }
  return nullptr;
}

/// Parses what follows a row: its ',' or the array's closing ']', after
/// which only whitespace may follow, to the end of the document (`last`:
/// `text` holds it). Sets `*closed` when the array closed.
const char* parse_json_separator(std::string_view text, std::size_t* pos,
                                 bool last, bool* closed) {
  std::size_t& p = *pos;
  skip_json_space(text, &p);
  if (p >= text.size()) return kUnexpectedEnd;
  if (text[p] == ',') {
    ++p;
    return nullptr;
  }
  if (text[p] != ']') return "expected ']'";
  ++p;
  skip_json_space(text, &p);
  if (p < text.size() || !last) {
    return "trailing bytes after the report JSON array";
  }
  *closed = true;
  return nullptr;
}

/// First byte in [p, end) that is `a` or `b`, else `end`: eight bytes at
/// a time on little-endian hosts, with split_unquoted's exact test.
const char* find_either(const char* p, const char* end, char a, char b) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::uint64_t pa = kOnes * static_cast<unsigned char>(a);
    const std::uint64_t pb = kOnes * static_cast<unsigned char>(b);
    for (; end - p >= 8; p += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p, sizeof(word));
      const std::uint64_t hits = byte_hits(word, pa) | byte_hits(word, pb);
      if (hits != 0) return p + std::countr_zero(hits) / 8;
    }
  }
  while (p != end && *p != a && *p != b) ++p;
  return p;
}

/// The JSON batch cutter's string-aware lex: every '}' outside a string
/// closes a row (rows are flat objects), and a ',' after one (past
/// whitespace) ends it, so a batch may end there. Its state survives the
/// end of the bytes, so a long line or string is lexed once however
/// many reads it spans. Inside
/// strings it only pairs a '\\' with the byte after it: on any document
/// the cursor accepts, its strings end where the cursor's do, and the
/// cursor rejects every other one before its count matters.
struct JsonRowLex {
  std::size_t rows = 0;     // rows closed so far
  bool in_string = false;
  bool escape = false;      // in a string, after a '\\'
  bool after_row = false;   // past a row's '}' and whitespace

  /// Lexes text[at, end); returns the offset just past the first row's
  /// ',' at or beyond `target`, else npos with the state kept.
  std::size_t run(std::string_view text, std::size_t at,
                  std::size_t target) {
    const char* const base = text.data();
    const char* const end = base + text.size();
    const char* p = base + at;
    while (p != end) {
      if (escape) {
        escape = false;
        ++p;
      } else if (in_string) {
        p = find_either(p, end, '"', '\\');
        if (p == end) break;
        if (*p == '\\') escape = true;
        in_string = *p++ != '"';
      } else if (after_row) {
        while (p != end && json_space(*p)) ++p;
        if (p == end) break;
        after_row = false;
        if (*p == ',' && static_cast<std::size_t>(++p - base) >= target) {
          return static_cast<std::size_t>(p - base);
        }
      } else {
        p = find_either(p, end, '"', '}');
        if (p == end) break;
        if (*p++ == '"') {
          in_string = true;
        } else {
          ++rows;
          after_row = true;
        }
      }
    }
    return std::string_view::npos;
  }
};

/// Rows closing on one line of report JSON. A raw newline never sits
/// inside a JSON string, so every line starts outside one. The writer's
/// layout — the line's only '}' followed by at most ',' and whitespace —
/// costs one memchr; any other line is lexed.
std::size_t json_line_rows(std::string_view line) {
  const auto* brace =
      static_cast<const char*>(std::memchr(line.data(), '}', line.size()));
  if (brace == nullptr) return 0;
  std::size_t i = static_cast<std::size_t>(brace - line.data()) + 1;
  while (i < line.size() && (line[i] == ',' || json_space(line[i]))) ++i;
  if (i == line.size()) return 1;
  JsonRowLex lex;
  lex.run(line, 0, std::string_view::npos);
  return lex.rows;
}

/// True when `line` ends with a row's closing '}' and its ',' (and
/// whitespace): a batch may end after it.
bool ends_json_row(std::string_view line) {
  std::size_t end = line.size();
  while (end > 0 && json_space(line[end - 1])) --end;
  if (end == 0 || line[end - 1] != ',') return false;
  --end;
  while (end > 0 && json_space(line[end - 1])) --end;
  return end > 0 && line[end - 1] == '}';
}

}  // namespace

CsvReader::CsvReader(const std::string& path) {
  if (path.empty() || path == "-") {
    source_ = "<stdin>";
    file_ = stdin;
  } else {
    source_ = path;
    file_ = std::fopen(path.c_str(), "rb");
    P2P_ASSERT_MSG(file_ != nullptr,
                   "cannot open report input file \"" + path + "\"");
    owns_file_ = true;
  }
  struct stat st {};
  if (fstat(fileno(file_), &st) == 0 && S_ISREG(st.st_mode)) {
    input_bytes_ = static_cast<std::size_t>(st.st_size);
  }
  // The read buffer trades places with the batches it is cut into, so it
  // is reserved here, like them (reserve_batch), on the constructing
  // thread: the first batch may be cut on a pool thread.
  buffer_.reserve(batch_bytes_ + kReadChunk);
  read_header();
}

CsvReader::CsvReader(Text, std::string text) {
  source_ = "<string>";
  exhausted_ = true;
  buffer_.assign(text.begin(), text.end());
  input_bytes_ = buffer_.size();
  read_header();
}

CsvReader CsvReader::from_text(std::string text) {
  return CsvReader(Text{}, std::move(text));
}

CsvReader::~CsvReader() {
  if (owns_file_ && file_ != nullptr) std::fclose(file_);
}

void CsvReader::read_header() {
  // The dialect is the first non-whitespace byte's, read from this
  // reader's own buffer (the input is read once). CSV keeps every byte.
  std::size_t first = pos_;
  while (true) {
    skip_json_space(buffered(), &first);
    if (first < buffer_.size() || exhausted_) break;
    refill(kReadChunk);  // pos_ is 0: nothing moves
  }
  json_ = first < buffer_.size() &&
          (buffer_[first] == '[' || buffer_[first] == '{');
  if (json_) {
    header_from_json(first);
  } else {
    header_from_csv();
  }
}

void CsvReader::header_from_csv() {
  // The header is the first record, cut and split like any other.
  CsvBatch header;
  const std::size_t target = std::exchange(batch_bytes_, 1);
  const bool any = next_batch(&header);
  batch_bytes_ = target;
  rows_ = 0;  // the header is not a data row
  // from_text's "<string>" is a label, not a path, so it goes unquoted.
  P2P_ASSERT_MSG(any, "report CSV " +
                          (file_ == nullptr ? source_ : "\"" + source_ + "\"") +
                          " is empty (no header line)");
  CsvBatchCursor cursor(header, *this);
  std::vector<std::string_view> cells;
  P2P_ASSERT_MSG(cursor.next(&cells), cursor.error());
  columns_.assign(cells.begin(), cells.end());
}

void CsvReader::header_from_json(std::size_t bracket) {
  if (buffer_[bracket] != '[') fail("expected '['", bracket);
  pos_ = bracket + 1;
  // The first row names the columns and stays unread: it is row 0. A
  // parse that ran into the end of the bytes read so far may only need
  // more of them.
  static const std::vector<std::string> kNone;
  std::vector<std::string_view> cells;
  std::string scratch;
  while (true) {
    std::size_t at = pos_;
    skip_json_space(buffered(), &at);
    if (at < buffer_.size() && buffer_[at] == ']') {
      fail("empty report JSON carries no header to recover a schema from; "
           "archive at least the columns (CSV always has them)",
           at);
    }
    columns_.clear();
    const char* what = parse_json_row(buffered(), &at, kNone, kNone, &columns_,
                                      &cells, &scratch);
    if (what == nullptr) break;
    if (at < buffer_.size() || exhausted_) fail(what, at);
    refill(kReadChunk);
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::string key = c == 0 ? "{" : ", ";
    append_json_string(key, columns_[c]);
    key += ": ";
    json_keys_.push_back(std::move(key));
  }
}

void CsvReader::set_batch_bytes(std::size_t bytes) {
  P2P_ASSERT_MSG(bytes >= 1, "CSV batch size must be at least one byte");
  batch_bytes_ = bytes;
}

void CsvReader::fail(std::string_view what, std::size_t at) const {
  P2P_ASSERT_MSG(false, input_error(std::string(what) + " in report JSON",
                                    source_, "byte", offset_ + at,
                                    buffered().substr(at)));
  std::abort();  // unreachable
}

void CsvReader::refill(std::size_t want) {
  if (exhausted_) return;
  // Compact the consumed prefix once per refill (not per row): rows are
  // consumed by bumping pos_, so a million-row file costs one memmove
  // per read instead of one per record.
  if (pos_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    offset_ += pos_;
    pos_ = 0;
  }
  const std::size_t have = buffer_.size();
  const std::size_t ask = std::max(want, kReadChunk);
  buffer_.resize(have + ask);
  const std::size_t got = std::fread(buffer_.data() + have, 1, ask, file_);
  buffer_.resize(have + got);
  if (got < ask) {
    P2P_ASSERT_MSG(std::ferror(file_) == 0,
                   "read error on report input file \"" + source_ + "\"");
    exhausted_ = true;
  }
}

bool CsvReader::next_row(std::vector<std::string_view>* cells) {
  while (true) {
    if (row_cursor_ != nullptr) {
      if (row_cursor_->next(cells)) return true;
      P2P_ASSERT_MSG(row_cursor_->error().empty(), row_cursor_->error());
      row_cursor_.reset();
    }
    if (!next_batch(&row_batch_)) return false;
    row_cursor_ = std::make_unique<CsvBatchCursor>(row_batch_, *this);
  }
}

bool CsvReader::next_row(std::vector<std::string>* cells) {
  if (!next_row(&views_)) return false;
  cells->assign(views_.begin(), views_.end());
  return true;
}

void CsvReader::reserve_batch(CsvBatch* batch) const {
  // A refill tops the buffer up to batch_bytes_, or reads one more chunk
  // past a record that outgrows it.
  batch->bytes.reserve(batch_bytes_ + kReadChunk);
}

bool CsvReader::next_batch(CsvBatch* batch) {
  batch->bytes.clear();
  batch->first_row = rows_;
  batch->first_line = line_;
  batch->first_byte = offset_ + pos_;
  batch->rows = 0;
  batch->last = false;
  if (buffer_.size() - pos_ < batch_bytes_) {
    refill(batch_bytes_ - (buffer_.size() - pos_));
  }
  return json_ ? next_json_batch(batch) : next_csv_batch(batch);
}

bool CsvReader::next_csv_batch(CsvBatch* batch) {
  // Whole records, each found with find_record_end's two-memchr fast
  // path, until the batch reaches its target size.
  std::size_t taken = 0;  // bytes of whole records past pos_
  RecordScan scan;        // the record starting at pos_ + taken
  while (taken < batch_bytes_) {
    const std::size_t end =
        find_record_end(buffered(), pos_ + taken, !exhausted_, &scan);
    if (end == std::string_view::npos) {
      if (exhausted_) break;
      refill(kReadChunk);  // moves pos_; `taken` stays relative to it
      continue;
    }
    line_ += record_lines(
        buffered().substr(pos_ + taken, end - pos_ - taken),
        scan.quoted);
    ++batch->rows;
    taken = end + 1 - pos_;
    scan = RecordScan{};
  }
  if (taken < batch_bytes_ && exhausted_) {
    // Bytes after the last '\n' are a record cut short: they ride along
    // for the cursor to reject once every earlier row has been checked.
    taken = buffer_.size() - pos_;
  }
  if (taken == 0) return false;  // clean end of file
  take(taken, batch);
  return true;
}

bool CsvReader::next_json_batch(CsvBatch* batch) {
  if (json_done_) return false;
  // Whole lines, each found with one memchr, up to the last that ends a
  // row, until that line passes the target size. Past `reach` with no
  // such line (minified JSON, commas leading the lines, one key per
  // line), the string-aware lex finds the rows' ends instead.
  std::size_t taken = 0;     // bytes of whole lines past pos_
  std::size_t cut = 0;       // bytes up to the last line ending a row
  std::size_t rows = 0;      // rows closing in the `taken` bytes
  std::size_t scanned = 0;   // bytes after `taken` that hold no '\n'
  while (cut < batch_bytes_) {
    const std::size_t reach = cut + batch_bytes_ + kReadChunk;
    if (taken >= reach) return lex_json_batch(batch, cut);
    const std::string_view rest = buffered().substr(pos_ + taken);
    const std::size_t window = std::min(rest.size(), reach - taken);
    const auto* nl = static_cast<const char*>(
        std::memchr(rest.data() + scanned, '\n', window - scanned));
    if (nl == nullptr) {
      if (window == reach - taken) return lex_json_batch(batch, cut);
      if (!exhausted_) {
        scanned = window;    // a long line is scanned once, not per read
        refill(kReadChunk);  // moves pos_; `taken` stays relative to it
        continue;
      }
      // The end of the document, closing bracket and all, is the last
      // batch — empty when the document stopped after a row's ','.
      cut = taken + rest.size();
      batch->rows = rows + json_line_rows(rest);
      batch->last = json_done_ = true;
      break;
    }
    scanned = 0;
    const std::string_view line(rest.data(),
                                static_cast<std::size_t>(nl - rest.data()));
    rows += json_line_rows(line);
    taken += line.size() + 1;
    if (ends_json_row(line)) {
      cut = taken;
      batch->rows = rows;
    }
  }
  take(cut, batch);
  return true;
}

bool CsvReader::lex_json_batch(CsvBatch* batch, std::size_t from) {
  // `from` bytes past pos_ end a row (or open the array), so the lex
  // starts outside a string; batch->rows counts the rows before it.
  JsonRowLex lex;
  lex.rows = batch->rows;
  std::size_t at = from;  // bytes past pos_ lexed so far
  while (true) {
    const std::string_view rest = buffered().substr(pos_);
    const std::size_t end = lex.run(rest, at, batch_bytes_);
    if (end != std::string_view::npos) {
      batch->rows = lex.rows;
      take(end, batch);
      return true;
    }
    at = rest.size();
    if (exhausted_) break;
    refill(kReadChunk);  // moves pos_; `at` stays relative to it
  }
  // The rest of the document is the last batch.
  batch->rows = lex.rows;
  batch->last = json_done_ = true;
  take(buffer_.size() - pos_, batch);
  return true;
}

void CsvReader::take(std::size_t taken, CsvBatch* batch) {
  if (pos_ == 0 && 2 * taken >= buffer_.size()) {
    // The run is most of a freshly read buffer: hand the buffer itself
    // over and keep only the bytes after it.
    batch->bytes.swap(buffer_);
    buffer_.assign(batch->bytes.begin() + static_cast<std::ptrdiff_t>(taken),
                   batch->bytes.end());
    batch->bytes.resize(taken);
    offset_ += taken;
  } else {
    const auto from = buffer_.begin() + static_cast<std::ptrdiff_t>(pos_);
    batch->bytes.assign(from, from + static_cast<std::ptrdiff_t>(taken));
    pos_ += taken;
  }
  rows_ += batch->rows;
}

CsvBatchCursor::CsvBatchCursor(const CsvBatch& batch, const CsvReader& reader)
    : batch_(batch),
      reader_(reader),
      row_(batch.first_row),
      line_(batch.first_line) {}

bool CsvBatchCursor::next(std::vector<std::string_view>* cells) {
  if (!error_.empty()) return false;
  return reader_.json_ ? next_json(cells) : next_csv(cells);
}

bool CsvBatchCursor::next_csv(std::vector<std::string_view>* cells) {
  const std::string_view bytes(batch_.bytes.data(), batch_.bytes.size());
  if (pos_ >= bytes.size()) return false;
  if (pos_ > 0) ++row_;
  RecordScan scan;
  // Only the input's last batch can end without a '\n'.
  const std::size_t end = find_record_end(bytes, pos_, false, &scan);
  const bool quoted = scan.quoted;
  if (end == std::string_view::npos) {
    error_ = input_error(kTruncated, reader_.source_, "line", line_,
                         bytes.substr(pos_));
    return false;
  }
  const std::string_view record = bytes.substr(pos_, end - pos_);
  const char* what = split_record(record, quoted, cells, &scratch_);
  const std::size_t arity = reader_.columns().size();  // 0: the header
  if (what == nullptr && arity != 0 && cells->size() != arity) {
    error_ = input_error(arity_error(cells->size(), arity), reader_.source_,
                         "line", line_, bytes.substr(pos_));
    return false;
  }
  if (what != nullptr) {
    error_ =
        input_error(what, reader_.source_, "line", line_, bytes.substr(pos_));
    return false;
  }
  line_ += record_lines(record, quoted);
  pos_ = end + 1;
  return true;
}

bool CsvBatchCursor::next_json(std::vector<std::string_view>* cells) {
  const std::string_view text(batch_.bytes.data(), batch_.bytes.size());
  std::size_t p = pos_;
  skip_json_space(text, &p);
  if (done_ || (p == text.size() && !batch_.last)) {
    // The cutter counted one row per '}' outside a string; a batch that
    // parsed whole must agree, or rows would land in the wrong slots.
    P2P_ASSERT_MSG(returned_ == batch_.rows,
                   "report JSON cut miscounted its objects");
    done_ = true;
    return false;
  }
  row_ = batch_.first_row + returned_;
  const char* what =
      parse_json_row(text, &p, reader_.columns_, reader_.json_keys_, nullptr,
                     cells, &scratch_);
  if (what == nullptr) {
    what = parse_json_separator(text, &p, batch_.last, &done_);
  }
  if (what != nullptr) {
    error_ = input_error(std::string(what) + " in report JSON",
                         reader_.source_, "byte", batch_.first_byte + p,
                         text.substr(p));
    return false;
  }
  P2P_ASSERT_MSG(returned_ < batch_.rows,
                 "report JSON cut miscounted its objects");
  ++returned_;
  pos_ = p;
  return true;
}

// --- validate_json ---

namespace {

constexpr int kMaxJsonDepth = 256;  // so no document overflows the stack

/// Skips one JSON value of any type at text[*pos] (after whitespace),
/// like the scanners it calls.
const char* skip_json_value(std::string_view text, std::size_t* pos,
                            int depth) {
  if (depth > kMaxJsonDepth) return "JSON nesting exceeds the depth budget";
  skip_json_space(text, pos);
  if (*pos >= text.size()) return kUnexpectedEnd;
  const char open = text[*pos];
  bool escaped = false;
  if (open == '"') return scan_json_string(text, pos, &escaped);
  if (open != '{' && open != '[') {
    for (const std::string_view word : {"true", "false", "null"}) {
      if (open != word[0]) continue;
      if (text.substr(*pos, word.size()) != word) {
        return word[0] == 't'   ? "malformed JSON literal (expected \"true\")"
               : word[0] == 'f' ? "malformed JSON literal (expected \"false\")"
                                : "malformed JSON literal (expected \"null\")";
      }
      *pos += word.size();
      return nullptr;
    }
    return scan_json_number(text, pos);
  }
  const char close = open == '{' ? '}' : ']';
  ++*pos;
  skip_json_space(text, pos);
  if (*pos < text.size() && text[*pos] == close) {
    ++*pos;
    return nullptr;
  }
  while (true) {
    if (open == '{') {
      skip_json_space(text, pos);
      if (*pos >= text.size() || text[*pos] != '"') return "expected '\"'";
      if (const char* what = scan_json_string(text, pos, &escaped)) {
        return what;
      }
      skip_json_space(text, pos);
      if (*pos >= text.size() || text[*pos] != ':') return "expected ':'";
      ++*pos;
    }
    if (const char* what = skip_json_value(text, pos, depth + 1)) return what;
    skip_json_space(text, pos);
    if (*pos >= text.size()) return kUnexpectedEnd;
    if (text[*pos] == ',') {
      ++*pos;
      continue;
    }
    if (text[*pos] != close) {
      return open == '{' ? "expected '}'" : "expected ']'";
    }
    ++*pos;
    return nullptr;
  }
}

}  // namespace

void validate_json(const std::string& text, const std::string& context) {
  std::size_t pos = 0;
  const char* what = skip_json_value(text, &pos, 0);
  if (what == nullptr) {
    skip_json_space(text, &pos);
    if (pos < text.size()) what = "trailing bytes after the JSON document";
  }
  P2P_ASSERT_MSG(what == nullptr,
                 std::string(what == nullptr ? "" : what) + " in " + context +
                     " at byte " + std::to_string(pos) + " (\"" +
                     preview_of(std::string_view(text).substr(pos)) + "\")");
}

// --- Report schema validation ---

PieceSet parse_mix_column_type(const std::string& column) {
  const std::string_view prefix = kLambdaTypePrefix;
  P2P_ASSERT_MSG(column.size() > prefix.size() &&
                     column.compare(0, prefix.size(), prefix) == 0,
                 "not a per-type arrival-rate column (expected \"" +
                     std::string(prefix) + "<pieces>\", got \"" + column +
                     "\")");
  PieceSet type;
  long prev = 0;
  for (const std::string& token :
       split_list(column.substr(prefix.size()), '.')) {
    // All-digit tokens only: strtol's leniency ("+1", " 1") is not part
    // of the column-name dialect mix_column_name emits.
    bool digits_only = !token.empty();
    for (const char c : token) digits_only = digits_only && c >= '0' && c <= '9';
    const long piece = digits_only ? std::strtol(token.c_str(), nullptr, 10) : 0;
    P2P_ASSERT_MSG(digits_only && piece > prev && piece <= kMaxPieces,
                   "malformed per-type column \"" + column +
                       "\": piece indices must be strictly increasing "
                       "one-based integers in [1, 64]");
    type = type.with(static_cast<int>(piece) - 1);
    prev = piece;
  }
  return type;
}

ReportSchema validate_report_schema(const std::vector<std::string>& columns) {
  P2P_ASSERT_MSG(!columns.empty(),
                 "a report header needs at least one column");

  ReportSchema schema;
  std::span<const char* const> head, tail;
  if (columns[0] == sweep_schema_head()[0]) {
    schema.kind = ReportKind::kGrid;
    head = sweep_schema_head();
    tail = sweep_schema_tail();
  } else if (columns[0] == frontier_schema_head()[0]) {
    schema.kind = ReportKind::kFrontier;
    head = frontier_schema_head();
    tail = frontier_schema_tail();
  } else {
    P2P_ASSERT_MSG(false, "not a sweep report header (expected the first "
                          "column to be \"cell\" or \"row\", got \"" +
                              columns[0] + "\")");
  }

  const auto expect = [&](std::size_t i, const char* want) {
    P2P_ASSERT_MSG(
        i < columns.size() && columns[i] == want,
        "report header mismatch at column " + std::to_string(i) +
            ": expected \"" + want + "\", got " +
            (i < columns.size() ? "\"" + columns[i] + "\""
                                : std::string("the end of the header")));
  };

  std::size_t i = 0;
  for (const char* c : head) expect(i++, c);
  if (i < columns.size() && columns[i] == kLambdaEmptyColumn) {
    schema.has_scenario = true;
    ++i;
    while (i < columns.size() &&
           columns[i].compare(0, std::string_view(kLambdaTypePrefix).size(),
                              kLambdaTypePrefix) == 0) {
      schema.mix_types.push_back(parse_mix_column_type(columns[i]));
      ++i;
    }
    P2P_ASSERT_MSG(!schema.mix_types.empty(),
                   "per-type block has \"lambda_empty\" but no \"lambda_t\" "
                   "columns");
    for (std::size_t a = 0; a < schema.mix_types.size(); ++a) {
      for (std::size_t b = a + 1; b < schema.mix_types.size(); ++b) {
        P2P_ASSERT_MSG(!(schema.mix_types[a] == schema.mix_types[b]),
                       "per-type block repeats an arrival type (column \"" +
                           mix_column_name(schema.mix_types[b]) + "\")");
      }
    }
  }
  schema.tail_start = i;
  for (const char* c : tail) expect(i++, c);
  // The sim_backend, policy and fluid_verdict columns (engine/sweep.hpp)
  // trail the fixed tail in that order, each optional: theory-only
  // grids, pre-backend corpora, baseline-policy sweeps and fluid-less
  // runs all lack some suffix of them.
  if (i < columns.size() && columns[i] == kSimBackendColumn) {
    schema.has_backend = true;
    ++i;
  }
  if (i < columns.size() && columns[i] == kPolicyColumn) {
    P2P_ASSERT_MSG(schema.has_backend,
                   "the policy column requires a sim_backend column before "
                   "it (no simulator ran without one)");
    schema.has_policy = true;
    ++i;
  }
  if (i < columns.size() && columns[i] == kFluidVerdictColumn) {
    P2P_ASSERT_MSG(schema.kind == ReportKind::kGrid,
                   "the fluid_verdict column belongs to grid reports only");
    schema.has_fluid = true;
    ++i;
  }
  if (i < columns.size() && columns[i] == kBoxDepthColumn) {
    // The multi-resolution box block closes an adaptive report's header:
    // box_depth, box_uniform, then one box_ext_<axis> per adaptive axis.
    P2P_ASSERT_MSG(schema.kind == ReportKind::kGrid,
                   "the box_depth column belongs to grid reports only");
    schema.has_boxes = true;
    schema.box_start = i;
    ++i;
    expect(i++, kBoxUniformColumn);
    const std::string_view ext_prefix = kBoxExtPrefix;
    while (i < columns.size() &&
           columns[i].compare(0, ext_prefix.size(), ext_prefix) == 0) {
      const std::string axis = columns[i].substr(ext_prefix.size());
      bool known = false;
      for (const char* c : sweep_schema_head()) known = known || axis == c;
      P2P_ASSERT_MSG(known && axis != sweep_schema_head()[0],
                     "box extent column \"" + columns[i] +
                         "\" does not name a model axis");
      for (const std::string& seen : schema.box_axes) {
        P2P_ASSERT_MSG(seen != axis, "box block repeats an extent column "
                                     "(column \"" +
                                         columns[i] + "\")");
      }
      schema.box_axes.push_back(axis);
      ++i;
    }
    P2P_ASSERT_MSG(schema.box_axes.size() >= 2,
                   "box block needs at least two box_ext_<axis> columns "
                   "(adaptive refinement subdivides >= 2 axes)");
  }
  P2P_ASSERT_MSG(i == columns.size(),
                 "report header has trailing columns after \"" +
                     std::string(tail.back()) + "\" (got \"" + columns[i] +
                     "\")");
  schema.num_columns = columns.size();
  return schema;
}

}  // namespace p2p::engine
