#include "engine/report.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace p2p::engine {

namespace {

void append_csv_cell(std::string& out, std::string_view cell) {
  if (cell.find_first_of(",\"\n") == std::string_view::npos) {
    out += cell;
    return;
  }
  out += '"';
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

/// The report preamble: the CSV header line, or the JSON array opener
/// (JSON rows carry their keys, RowRenderer's column prefixes).
void append_header(std::string& out, ReportFormat format,
                   const std::vector<std::string>& columns) {
  if (format == ReportFormat::kJson) {
    out += "[\n";
    return;
  }
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    append_csv_cell(out, columns[c]);
  }
  out += '\n';
}

/// The JSON cell trichotomy of RowRenderer::Row::text: cells matching
/// the JSON number grammar unquoted, format_number's non-finite
/// spellings as null, everything else a quoted string. The grammar is
/// deliberately stricter than strtod, which also accepts spellings JSON
/// parsers reject ("+5", "0x1F", " 12").
void append_json_cell(std::string& out, std::string_view cell) {
  std::size_t end = 0;
  if (scan_json_number(cell, &end) == nullptr && end == cell.size()) {
    out += cell;
  } else if (cell == "inf" || cell == "-inf" || cell == "nan") {
    out += "null";
  } else {
    append_json_string(out, cell);
  }
}

/// Flush threshold for the file-backed writer: large enough that fwrite
/// costs amortize away, small enough that the buffer stays cache-warm.
constexpr std::size_t kFlushBytes = 1 << 16;

}  // namespace

RowRenderer::RowRenderer(ReportFormat format,
                         const std::vector<std::string>& columns)
    : format_(format) {
  P2P_ASSERT_MSG(!columns.empty(), "a report needs at least one column");
  prefixes_.reserve(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    std::string prefix;
    if (format == ReportFormat::kCsv) {
      if (c > 0) prefix = ",";
    } else {
      prefix = c == 0 ? "  {" : ", ";
      append_json_string(prefix, columns[c]);
      prefix += ": ";
    }
    prefixes_.push_back(std::move(prefix));
  }
}

RowRenderer::Row::Row(const RowRenderer& renderer, std::string& arena)
    : renderer_(&renderer), arena_(&arena) {
  // A JSON row following another in the same arena gets the separator
  // its predecessor withheld; the arena's last row stays open for the
  // writer to terminate.
  if (renderer.format_ == ReportFormat::kJson && !arena.empty()) {
    arena += "},\n";
  }
}

void RowRenderer::Row::append_prefix() {
  P2P_ASSERT_MSG(cell_ < renderer_->prefixes_.size() && !ended_,
                 "row arity must match the column count");
  *arena_ += renderer_->prefixes_[cell_++];
}

void RowRenderer::Row::number(double value) {
  append_prefix();
  if (renderer_->format_ == ReportFormat::kJson) {
    append_json_number(*arena_, value);
  } else {
    format_number_into(*arena_, value);
  }
}

void RowRenderer::Row::text(std::string_view cell) {
  append_prefix();
  if (renderer_->format_ == ReportFormat::kCsv) {
    append_csv_cell(*arena_, cell);
  } else {
    append_json_cell(*arena_, cell);
  }
}

void RowRenderer::Row::cells_verbatim(std::string_view bytes,
                                      std::size_t count) {
  P2P_ASSERT_MSG(cell_ + count <= renderer_->prefixes_.size() && !ended_,
                 "row arity must match the column count");
  arena_->append(bytes);
  cell_ += count;
}

void RowRenderer::Row::end() {
  P2P_ASSERT_MSG(!ended_, "row ended twice");
  P2P_ASSERT_MSG(cell_ == renderer_->prefixes_.size(),
                 "row arity must match the column count");
  if (renderer_->format_ == ReportFormat::kCsv) *arena_ += '\n';
  ended_ = true;
}

ReportWriter::ReportWriter(const std::string& path, ReportFormat format,
                           std::vector<std::string> columns)
    : columns_(std::move(columns)),
      format_(format),
      path_(path),
      to_stdout_(path.empty() || path == "-") {
  P2P_ASSERT_MSG(!columns_.empty(), "a report needs at least one column");
  if (to_stdout_) file_ = stdout;
  // A named file is opened lazily, at the first flush: a producer that
  // aborts in validation before writing anything (bad axis spec, ...)
  // must not have truncated a previously good output file — the old
  // write-after-success path never did.
  append_header(buffer_, format_, columns_);
}

ReportWriter::ReportWriter(std::string* sink, ReportFormat format,
                           std::vector<std::string> columns)
    : columns_(std::move(columns)), format_(format), sink_(sink) {
  P2P_ASSERT_MSG(!columns_.empty(), "a report needs at least one column");
  P2P_ASSERT(sink_ != nullptr);
  append_header(*sink_, format_, columns_);
}

ReportWriter::~ReportWriter() {
  if (!finished_) finish();
}

void ReportWriter::write_rendered(std::string_view bytes,
                                  std::size_t row_count) {
  P2P_ASSERT_MSG(!finished_, "write_rendered after finish()");
  if (row_count == 0) {
    P2P_ASSERT_MSG(bytes.empty(), "rendered bytes carry no rows");
    return;
  }
  std::string& out = sink_ != nullptr ? *sink_ : buffer_;
  // The arena's first row carries no separator (the renderer cannot know
  // whether the writer already holds an open row); rows within the arena
  // already carry theirs.
  if (format_ == ReportFormat::kJson && rows_ > 0) out += "},\n";
  out.append(bytes);
  rows_ += row_count;
  if (sink_ == nullptr && buffer_.size() >= kFlushBytes) flush_to_file();
}

void ReportWriter::finish() {
  P2P_ASSERT_MSG(!finished_, "finish() called twice");
  finished_ = true;
  std::string& out = sink_ != nullptr ? *sink_ : buffer_;
  if (format_ == ReportFormat::kJson) {
    if (rows_ > 0) out += "}\n";
    out += "]\n";
  }
  if (sink_ != nullptr) return;
  if (flusher_.joinable()) {
    flush_to_file();  // hands the closing bytes to the flusher
    {
      std::lock_guard<std::mutex> lock(flush_mutex_);
      flusher_stop_ = true;
    }
    flush_cv_.notify_all();
    flusher_.join();
  } else if (!buffer_.empty()) {
    write_file_bytes(buffer_);
    buffer_.clear();
  }
  if (to_stdout_) {
    P2P_ASSERT_MSG(std::fflush(file_) == 0, "short write to stdout");
  } else {
    // fclose flushes the stdio buffer, so a full disk can surface there;
    // a truncated report must not exit 0.
    P2P_ASSERT_MSG(std::fclose(file_) == 0,
                   "short write to report output file");
  }
  file_ = nullptr;
}

void ReportWriter::flush_to_file() {
  if (buffer_.empty()) return;
  if (to_stdout_) {
    // stdout stays synchronous: callers interleave their own writes.
    write_file_bytes(buffer_);
    buffer_.clear();
    return;
  }
  if (!flusher_.joinable()) {
    flusher_ = std::thread([this] { flusher_loop(); });
  }
  std::unique_lock<std::mutex> lock(flush_mutex_);
  // At most one buffer in flight: wait until the flusher drained the
  // previous one, then swap — the producer and the flusher ping-pong the
  // same two allocations for the whole run.
  flush_cv_.wait(lock, [this] { return !flush_pending_; });
  inflight_.swap(buffer_);
  buffer_.clear();
  flush_pending_ = true;
  flush_cv_.notify_all();
}

void ReportWriter::flusher_loop() {
  std::unique_lock<std::mutex> lock(flush_mutex_);
  while (true) {
    flush_cv_.wait(lock, [this] { return flush_pending_ || flusher_stop_; });
    if (flush_pending_) {
      // Write unlocked: the producer only touches inflight_ while
      // flush_pending_ is false.
      lock.unlock();
      write_file_bytes(inflight_);
      inflight_.clear();
      lock.lock();
      flush_pending_ = false;
      flush_cv_.notify_all();
      continue;
    }
    return;  // stop requested with nothing left in flight
  }
}

void ReportWriter::write_file_bytes(const std::string& bytes) {
  if (file_ == nullptr) {
    file_ = std::fopen(path_.c_str(), "wb");
    P2P_ASSERT_MSG(file_ != nullptr,
                   "cannot open report output file \"" + path_ + "\"");
  }
  const std::size_t written =
      std::fwrite(bytes.data(), 1, bytes.size(), file_);
  P2P_ASSERT_MSG(written == bytes.size(),
                 "short write to report output file");
}

void write_text(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), stdout);
    // Output smaller than stdio's buffer only reaches the descriptor at
    // exit, where a failed write is silently dropped: flush here, as
    // ReportWriter::finish does.
    P2P_ASSERT_MSG(written == text.size() && std::fflush(stdout) == 0,
                   "short write to stdout");
    return;
  }
  FILE* file = std::fopen(path.c_str(), "wb");
  P2P_ASSERT_MSG(file != nullptr, "cannot open report output file");
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  // fclose flushes the stdio buffer, so a full disk can surface there;
  // a truncated report must not exit 0.
  const bool closed = std::fclose(file) == 0;
  P2P_ASSERT_MSG(written == text.size() && closed,
                 "short write to report output file");
}

}  // namespace p2p::engine
