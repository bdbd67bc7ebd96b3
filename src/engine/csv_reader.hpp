// Streaming, schema-validating readers for the sweep corpus — the
// inverse of engine/report.hpp.
//
// The CSV dialect is exactly what ReportWriter emits: a header line and
// '\n'-terminated rows with RFC-4180 quoting (cells containing commas,
// quotes or newlines are quoted, embedded quotes doubled). Reading a
// report recovers the text cells it was rendered from bit-exactly
// (RowRenderer::Row::text renders them back to the same bytes), and
// every numeric cell parses back to the identical double (format_number's
// shortest-round-trip contract) — archived corpora under experiments/
// are lossless records whose physics the golden-corpus tests re-derive
// from the bytes alone.
//
// Errors are hard aborts (P2P_ASSERT) echoing the offending line or
// byte offset: corpus files are test-pinned artifacts, so a truncated,
// reordered or wrong-arity file is a bug to surface loudly, never an
// input to recover from silently.
//
// Two ways to pull rows, one record scanner and one cell splitter under
// both:
//   * next_row yields one record's cells as std::string_view. A view
//     points into the reader's read buffer (or, for a quoted cell with
//     doubled quotes, into a reader-owned unescape buffer) and stays
//     valid until the next next_row/next_batch call on that reader. The
//     std::string overload copies them out.
//   * next_batch cuts the input into owned runs of whole records (about
//     batch_bytes() each) tagged with their first row index and line
//     number, so records can be split and decoded on other threads. A
//     CsvBatchCursor walks one batch's records with next_row's splitter
//     and arity check, but reports a malformed record instead of
//     aborting — the caller raises the earliest row's error, so messages
//     do not depend on which thread decoded what.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "engine/uninit_allocator.hpp"
#include "util/piece_set.hpp"

namespace p2p::engine {

/// Inverse of format_number: "nan", "inf", "-inf", or a finite decimal
/// spelling (engine/parse_util.hpp's parse_plain_decimal: an optional
/// '-', then a digit, consumed whole, in range). Returns false for any
/// other spelling — "", "1x", " 2", "+2", "0x10", "1e-400" — leaving the
/// message to the caller.
bool parse_report_number(std::string_view cell, double* value);

/// Aborting form: echoes `cell` and `context` (report_number_error).
double parse_report_number(std::string_view cell, std::string_view context);

/// The message the aborting parse_report_number prints, for callers
/// that defer the abort (or build `context` only on failure).
std::string report_number_error(std::string_view cell,
                                std::string_view context);

/// Raw input bytes. Growing one does not zero the new bytes: the reader
/// grows its buffer only to fread into it.
using CsvBytes = std::vector<char, UninitAllocator<char>>;

/// A run of whole records cut from a CsvReader's input by next_batch.
struct CsvBatch {
  CsvBytes bytes;              // whole records, each '\n'-terminated
  std::size_t first_row = 0;   // data-row index of the first record
  std::size_t first_line = 0;  // 1-based line number of the first record
  std::size_t rows = 0;        // records in `bytes`
  /// Non-empty when the input ended mid-record after these rows: the
  /// reader's truncation message, to raise once every earlier row has
  /// been checked.
  std::string error;
};

/// Pulls rows one at a time out of a report CSV without retaining the
/// document, so corpora larger than memory stream in O(row) space. The
/// header is parsed eagerly at construction; each next_row() call
/// yields one record and validates its arity against the header.
class CsvReader {
 public:
  /// Default next_batch size: large enough that a batch is worth a pool
  /// claim, small enough that a few in flight per thread stay cheap.
  static constexpr std::size_t kBatchBytes = std::size_t{1} << 20;

  /// Reads from `path`; "-" means stdin (so a fresh p2p_sweep run can
  /// be piped straight in). Aborts if the file cannot be opened or the
  /// header line is malformed.
  explicit CsvReader(const std::string& path);

  /// Reads from an in-memory document (tests, captured output).
  static CsvReader from_text(std::string text);

  CsvReader(CsvReader&& other) noexcept;
  CsvReader(const CsvReader&) = delete;
  CsvReader& operator=(const CsvReader&) = delete;
  ~CsvReader();

  const std::vector<std::string>& columns() const { return columns_; }
  /// Where the bytes come from ("<stdin>", "<string>" or the path), as
  /// error messages name it.
  const std::string& source() const { return source_; }
  /// Data rows returned so far (the header does not count).
  std::size_t rows_read() const { return rows_; }

  /// Fills `cells` with views of the next data row's cells; false at
  /// clean end of file. The views stay valid until the next call on
  /// this reader. Aborts — echoing the 1-based line number and the line
  /// itself — on wrong arity, malformed quoting, or a truncated final
  /// record (a file that does not end in '\n' was cut mid-row).
  bool next_row(std::vector<std::string_view>* cells);

  /// Owning form of next_row: the same record, copied out.
  bool next_row(std::vector<std::string>* cells);

  /// Size of the whole input in bytes when it is known up front (an
  /// in-memory document or a regular file), else 0 (a pipe). A hint for
  /// reserving typed storage, never a bound.
  std::size_t input_bytes() const { return input_bytes_; }

  /// Target size of next_batch's runs (at least one whole record each).
  /// Tests shrink it to cut small documents into many batches.
  std::size_t batch_bytes() const { return batch_bytes_; }
  void set_batch_bytes(std::size_t bytes);

  /// Reserves `batch` so that next_batch fills it (and the read buffer
  /// it trades places with) without allocating. Call it on the thread
  /// that should own the memory: batches cut on pool threads then never
  /// scatter megabyte buffers over per-thread heaps.
  void reserve_batch(CsvBatch* batch) const;

  /// Moves the next run of whole records (about batch_bytes()) into
  /// `batch`; false at clean end of file. Only record boundaries are
  /// found here (two memchr calls per quote-free record); splitting and
  /// arity checks are CsvBatchCursor's, on any thread. A
  /// truncated final record comes back as a batch with no rows and
  /// `error` set, rather than as an abort.
  bool next_batch(CsvBatch* batch);

 private:
  CsvReader() = default;
  void read_header();
  /// Appends at least `want` bytes (if the input has them) after
  /// compacting the consumed prefix.
  void refill(std::size_t want);
  [[noreturn]] void fail(std::string_view what) const;

  /// The read buffer as text. An empty vector's data() may be null,
  /// which the memchr scans must never be handed.
  std::string_view buffered() const {
    return buffer_.empty() ? std::string_view("")
                           : std::string_view(buffer_.data(), buffer_.size());
  }

  std::string source_;  // for error messages
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  bool exhausted_ = false;  // no more bytes behind buffer_
  CsvBytes buffer_;         // read bytes; [pos_, end) not yet parsed
  std::size_t pos_ = 0;     // consumed prefix (compacted at refill)
  std::size_t line_ = 1;    // 1-based line number of the next record
  std::string scratch_;     // unescaped quoted cells of the last row
  std::vector<std::string_view> views_;  // the owning next_row's scratch
  std::vector<std::string> columns_;
  std::size_t rows_ = 0;
  std::size_t batch_bytes_ = kBatchBytes;
  std::size_t input_bytes_ = 0;
};

/// Walks one CsvBatch's records in order, splitting each with next_row's
/// splitter and checking its arity against the reader's header.
class CsvBatchCursor {
 public:
  /// `batch` and `reader` must outlive the cursor; only the reader's
  /// source name and header width are read, so cursors on several
  /// threads may share it while the caller keeps calling next_batch.
  CsvBatchCursor(const CsvBatch& batch, const CsvReader& reader);

  /// Fills `cells` with views of the next record's cells (valid until
  /// the next call); false at the end of the batch, or on a malformed
  /// record — then error() holds the message next_row would abort with.
  bool next(std::vector<std::string_view>* cells);

  /// Data-row index of the record last returned (or rejected).
  std::size_t row() const { return row_; }
  const std::string& error() const { return error_; }

 private:
  const CsvBatch& batch_;
  const std::string& source_;
  std::size_t arity_;
  std::size_t pos_ = 0;
  std::size_t row_;
  std::size_t line_;  // line of the next record
  std::string scratch_;
  std::string error_;
};

/// Reads a whole CSV document into a Table: the inverse of a CSV
/// ReportWriter. The cells are the text cells the rows were rendered
/// from, so re-rendering them through RowRenderer::Row::text reproduces
/// the document byte for byte.
Table read_csv(std::string text);
Table read_csv_file(const std::string& path);

/// Reads a report-format JSON document (the array of flat objects a JSON
/// ReportWriter emits) into a Table. Columns come from
/// the first object's keys; every later object must repeat them in the
/// same order. Numbers keep their literal spelling (so a read report
/// re-emits byte-identically) and null cells read back as "nan" — the
/// emitter maps every non-finite cell to null, so inf/-inf/nan
/// distinctions are not recoverable from JSON; archive CSV when
/// bit-exactness matters. An empty array aborts: it carries no header
/// to recover a schema from.
Table read_json(const std::string& text);
Table read_json_file(const std::string& path);

/// The one JSON-vs-CSV sniff: a report whose first non-whitespace byte
/// is '[' is JSON, anything else CSV (whatever the file is named — the
/// dialect is in the bytes). For "-" (stdin) the probed whitespace is
/// consumed and the deciding byte pushed back, so a subsequent reader
/// sees the document from its first non-whitespace byte. Unreadable or
/// empty inputs return false and leave the error to the real reader.
/// Dispatch on this to pick read_json_file or a streaming CsvReader.
bool report_is_json(const std::string& path);

/// Validates that `text` is exactly one well-formed JSON value (full
/// grammar: objects, arrays, strings with escapes, numbers,
/// true/false/null). Aborts echoing `context` and the byte offset on
/// malformed input. The golden-corpus suite runs this over non-tabular
/// archives (bench JSON, phase-diagram summary JSON).
void validate_json(const std::string& text, const std::string& context);

// --- Report schema validation ---

enum class ReportKind { kGrid, kFrontier };

/// A validated report header: which of the two tables it is, and the
/// arrival types of the per-type block when one is present.
struct ReportSchema {
  ReportKind kind = ReportKind::kGrid;
  /// True when the per-type arrival-rate block (lambda_empty +
  /// lambda_t...) is present, i.e. the report was produced under a
  /// named scenario.
  bool has_scenario = false;
  /// Piece sets parsed back from the lambda_t column names, in column
  /// order; empty when has_scenario is false.
  std::vector<PieceSet> mix_types;
  /// Column index of the first tail column ("verdict" for the grid,
  /// "replicas" for the frontier).
  std::size_t tail_start = 0;
  std::size_t num_columns = 0;
  /// True when the trailing "sim_backend" column is present. Reports
  /// written since the type-count backend landed carry it whenever a
  /// simulator ran; earlier corpora (and theory-only grids) do not, and
  /// both generations must keep validating.
  bool has_backend = false;
  /// True when the trailing "policy" column (after sim_backend) is
  /// present: the report simulated a non-RandomUseful selection policy.
  bool has_policy = false;
  /// True when the trailing "fluid_verdict" column (last) is present:
  /// the sweep ran the fluid-limit classifier next to theory and sim.
  bool has_fluid = false;
  /// True when the multi-resolution box block (box_depth, box_uniform,
  /// box_ext_<axis>...) closes the header: the report came from an
  /// adaptive refinement and each row is a leaf box, not a lattice cell.
  bool has_boxes = false;
  /// Column index of box_depth; meaningful only when has_boxes.
  std::size_t box_start = 0;
  /// Axis names parsed from the box_ext_* columns, in column order
  /// (>= 2, distinct model axes); empty when has_boxes is false.
  std::vector<std::string> box_axes;
};

/// Inverse of mix_column_name: "lambda_t1.2" -> {0, 1}. Aborts on
/// malformed names — the indices must be strictly increasing one-based
/// integers in [1, 64].
PieceSet parse_mix_column_type(const std::string& column);

/// Validates `columns` against the header shape the writers build from
/// the same constants (sweep_schema_head/tail, frontier_schema_head/
/// tail): fixed head, optional per-type block (lambda_empty followed by
/// at least one lambda_t column, all types distinct), fixed tail —
/// in exactly that order. Aborts naming the first mismatching column,
/// so a reordered or renamed header fails loudly instead of silently
/// misassigning every column after it.
ReportSchema validate_report_schema(const std::vector<std::string>& columns);

}  // namespace p2p::engine
