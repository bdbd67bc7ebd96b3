// Deterministic tabular report emitters (CSV and JSON) for sweep results.
//
// Cells are formatted to strings once, by the producer, in cell-index
// order — so the emitted bytes depend only on the results, never on
// thread count or scheduling. Numbers go through format_number
// (util/number_format.hpp: std::to_chars's shortest round-trip bytes,
// with "inf"/"-inf"/"nan" spelled out) so CSV diffs are stable across
// runs and every emitted decimal parses back to the exact bit pattern.
//
// One serializer turns cells into report bytes:
//
//   * RowRenderer  — renders rows into caller-supplied arenas, so worker
//                    threads can format rows concurrently;
//   * ReportWriter — streaming: header up front, rendered rows
//                    concatenated as they become final (write_rendered),
//                    closer written by finish(). Peak memory is one I/O
//                    buffer, not the table — the emitter million-cell
//                    sweeps stream through.
//
// A file-backed ReportWriter double-buffers its output: full buffers are
// handed to a background flusher thread, so the producing thread overlaps
// compute with fwrite instead of stalling on the disk.
#pragma once

#include <cstdio>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/number_format.hpp"

namespace p2p::engine {

enum class ReportFormat { kCsv, kJson };

/// Renders rows of a fixed column schema into caller-supplied string
/// arenas — the only code that turns a cell into report bytes. This is
/// what lets sweep workers format rows in parallel: each worker renders
/// into its own arena, and the writer concatenates the finished spans
/// (ReportWriter::write_rendered) instead of formatting on the consuming
/// thread.
///
/// The per-column prefixes ("," / ", \"name\": ") are rendered once at
/// construction; rendering a row costs no allocation beyond arena
/// growth. A RowRenderer is immutable after construction and may be
/// shared by any number of threads — each in-flight row lives in a Row
/// cursor on the rendering thread's stack.
class RowRenderer {
 public:
  RowRenderer(ReportFormat format, const std::vector<std::string>& columns);

  std::size_t num_columns() const { return prefixes_.size(); }
  ReportFormat format() const { return format_; }
  /// The bytes emitted before cell `column`'s value.
  const std::string& prefix(std::size_t column) const {
    return prefixes_[column];
  }

  /// One row being rendered into an arena. In JSON the row's "}"
  /// terminator is withheld (the writer emits "},\n" or "}\n" when it
  /// learns whether a successor exists); beginning a row in a non-empty arena emits the "},\n" separator
  /// first — so an arena holding N rows carries N-1 separators and no
  /// trailing terminator, which is precisely the byte layout
  /// write_rendered expects.
  class Row {
   public:
    /// Begins a row appended to `arena`. The arena must contain only
    /// rows previously rendered by the same renderer (or nothing).
    Row(const RowRenderer& renderer, std::string& arena);

    /// Appends format_number(value) as the next cell (JSON renders
    /// non-finite values as null).
    void number(double value);
    /// Appends a general text cell: CSV quoting (cells containing
    /// commas, quotes or newlines are quoted, quotes doubled) and the
    /// JSON trichotomy — a JSON-grammar number unquoted, format_number's
    /// non-finite spellings as null, anything else a quoted string.
    void text(std::string_view cell);
    /// Appends `count` cells rendered for this renderer at the same
    /// column positions (prefixes included) — how a row assembled
    /// outside the arena (render_grid_row) lands in it with one copy.
    /// The bytes are trusted verbatim; only the arity is checked.
    void cells_verbatim(std::string_view bytes, std::size_t count);
    /// Ends the row; aborts unless exactly num_columns() cells were
    /// emitted.
    void end();

   private:
    void append_prefix();

    const RowRenderer* renderer_;
    std::string* arena_;
    std::size_t cell_ = 0;
    bool ended_ = false;
  };

 private:
  ReportFormat format_;
  /// prefixes_[c]: the bytes emitted before cell c's value.
  std::vector<std::string> prefixes_;
};

/// Streams a rectangular table row by row to a file (or a string, for
/// tests and in-memory consumers) without retaining the rows. The
/// constructor emits the header, write_rendered appends rows a
/// RowRenderer produced, finish() writes the JSON closer and flushes.
class ReportWriter {
 public:
  /// Streams to `path`; "-" or empty means stdout. A named file is
  /// opened (and truncated) lazily at the first buffer flush, so a
  /// producer that aborts before writing anything leaves a pre-existing
  /// file untouched; an unopenable path aborts at that first flush.
  ReportWriter(const std::string& path, ReportFormat format,
               std::vector<std::string> columns);
  /// Streams into `*sink` (appended; not cleared first).
  ReportWriter(std::string* sink, ReportFormat format,
               std::vector<std::string> columns);

  ReportWriter(const ReportWriter&) = delete;
  ReportWriter& operator=(const ReportWriter&) = delete;

  /// Finishes implicitly if finish() was not called; prefer calling it
  /// explicitly — a short write still aborts, just later.
  ~ReportWriter();

  const std::vector<std::string>& columns() const { return columns_; }
  ReportFormat format() const { return format_; }
  std::size_t rows_written() const { return rows_; }

  /// Appends `row_count` rows rendered into `bytes` by a RowRenderer
  /// built over this writer's format and columns. The bytes are
  /// appended verbatim, after the JSON row separator when due.
  void write_rendered(std::string_view bytes, std::size_t row_count);

  /// Writes the JSON closer, flushes (joining the background flusher if
  /// one was started), and closes the file. A truncated report (disk
  /// full, broken pipe) aborts rather than exiting 0. Exactly once;
  /// write_rendered is invalid afterwards.
  void finish();

 private:
  void flush_to_file();
  void flusher_loop();
  /// Opens the file lazily and writes `bytes`; aborts on a short write.
  void write_file_bytes(const std::string& bytes);

  std::vector<std::string> columns_;
  ReportFormat format_;
  std::string* sink_ = nullptr;
  std::string path_;
  /// Decided at construction, so the producer never reads file_ while
  /// the flusher may be opening it.
  bool to_stdout_ = false;
  /// stdout, or the named file from its lazy open on. Once the flusher
  /// thread has started, only it touches a named file until finish()
  /// joins it.
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::size_t rows_ = 0;
  bool finished_ = false;

  // Double-buffered output: a full buffer_ is swapped into inflight_ and
  // written by the flusher thread while the producer keeps appending.
  // The flusher is started lazily at the first file flush, so small
  // reports (everything fits in one buffer until finish()) never pay
  // for a thread. stdout stays synchronous — callers interleave their
  // own writes with it.
  std::thread flusher_;
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  std::string inflight_;
  bool flush_pending_ = false;
  bool flusher_stop_ = false;
};

/// Writes `text` to `path`, or to stdout when path is "-" or empty.
/// Aborts with a message when the file cannot be opened or the bytes
/// cannot all be written (stdout is flushed, so a short write surfaces
/// here rather than being lost at exit).
void write_text(const std::string& path, const std::string& text);

}  // namespace p2p::engine
