// The streaming, schema-validating report reader: the inverse of
// engine/report.hpp, for both dialects a ReportWriter emits. The dialect
// is in the bytes: a document whose first non-whitespace byte is '[' is
// report JSON (so is one starting '{', which then fails as a report that
// is not an array); anything else is CSV.
//
//   * CSV is exactly what ReportWriter emits: a header line and
//     '\n'-terminated rows with RFC-4180 quoting. Reading a report
//     recovers the text cells it was rendered from bit-exactly, and every
//     numeric cell parses back to the identical double (format_number's
//     shortest-round-trip contract) — archived corpora under experiments/
//     are lossless records whose physics the golden-corpus tests
//     re-derive from the bytes alone.
//   * JSON is an array of flat objects in any whitespace layout; the
//     columns are the first object's keys, which every object repeats in
//     order. Numbers keep their literal spelling, strings unescape, and
//     null reads as "nan": the emitter maps every non-finite cell to
//     null, so inf/-inf/nan are not recoverable from JSON — archive CSV
//     when bit-exactness matters. An empty array aborts: it carries no
//     header to recover a schema from.
//
// Errors are hard aborts (P2P_ASSERT) echoing the CSV record's line or the
// JSON byte offset, and the offending bytes: corpus files are test-pinned
// artifacts, so a truncated, reordered or wrong-arity file is a bug to
// surface loudly, never an input to recover from silently.
//
// Rows come out of one batch cutter and one splitter per dialect:
//   * next_batch cuts owned runs of whole records (about batch_bytes()
//     each), tagged with their first row index. CSV runs end at record
//     boundaries (two memchr calls per quote-free record; a record that
//     spans reads is scanned once). JSON runs end at a newline after a
//     row's closing "},": a raw newline never sits inside a JSON string,
//     so the cut is lexically safe, and a line's rows are counted from
//     its '}' bytes. When no line ends a row within a run's worth of
//     bytes (minified JSON, commas leading the lines), a string-aware lex
//     ends the run after a row's '}' and its ',' instead, so every layout
//     is cut into runs of about batch_bytes(). A
//     CsvBatchCursor splits one run's records on any thread and checks
//     them against the header, reporting a malformed record instead of
//     aborting — the caller raises the earliest row's error, so messages
//     do not depend on which thread decoded what.
//   * next_row walks the same runs on the calling thread and aborts on
//     the first error. Its views point into the current run or the
//     cursor's unescape buffer and stay valid until the next call on the
//     reader; the std::string overload copies them out.
#pragma once

#include <cstdio>
#include <memory>
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
  CsvBytes bytes;  // whole records; the last run may end in a cut-off one
  std::size_t first_row = 0;   // data-row index of the first record
  std::size_t first_line = 0;  // CSV: 1-based line number of the first record
  std::size_t first_byte = 0;  // document offset of bytes[0]
  std::size_t rows = 0;        // records in `bytes`
  /// JSON: the run holds the end of the document, so it must close the
  /// array.
  bool last = false;
};

class CsvBatchCursor;

/// Pulls rows out of a report (CSV or JSON) without retaining the
/// document, so corpora larger than memory stream in O(batch) space.
/// The dialect is detected and the header parsed eagerly at
/// construction; each record is validated against the header.
class CsvReader {
 public:
  /// Default next_batch size: large enough that a batch is worth a pool
  /// claim, small enough that a few in flight per thread stay cheap.
  static constexpr std::size_t kBatchBytes = std::size_t{1} << 20;

  /// Reads from `path`; "-" means stdin (so a fresh p2p_sweep run can
  /// be piped straight in). The input is opened and read once, so pipes
  /// and FIFOs work. Aborts if the file cannot be opened or the header
  /// is malformed.
  explicit CsvReader(const std::string& path);

  /// Reads from an in-memory document (tests, captured output).
  static CsvReader from_text(std::string text);

  /// A reader is neither copied nor moved: next_row's cursor refers to
  /// the reader's own batch and header.
  CsvReader(const CsvReader&) = delete;
  CsvReader& operator=(const CsvReader&) = delete;
  ~CsvReader();

  const std::vector<std::string>& columns() const { return columns_; }
  /// Data rows cut into batches so far (the header does not count):
  /// every row, once next_row or next_batch has returned false.
  std::size_t rows_read() const { return rows_; }

  /// Fills `cells` with views of the next data row's cells (valid until
  /// the next call on this reader); false at clean end of file. Aborts
  /// with the batch cursor's message on a malformed record — wrong arity
  /// or keys, bad quoting or grammar, a cut-off end.
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
  /// found here; splitting and header checks are CsvBatchCursor's, on
  /// any thread. Nothing aborts here: a truncated final CSV record rides
  /// in the last batch, and the JSON document's end always comes back as
  /// a batch marked `last` (empty when the document stopped after a
  /// row's ','), for the cursor to reject or accept.
  bool next_batch(CsvBatch* batch);

 private:
  struct Text {};
  CsvReader(Text, std::string text);
  void read_header();
  void header_from_csv();
  void header_from_json(std::size_t bracket);
  bool next_csv_batch(CsvBatch* batch);
  bool next_json_batch(CsvBatch* batch);
  /// next_json_batch's cut for lines that end no row: lexes from `from`
  /// bytes past the unread start, a row boundary.
  bool lex_json_batch(CsvBatch* batch, std::size_t from);
  /// Moves the first `taken` unread bytes into `batch`.
  void take(std::size_t taken, CsvBatch* batch);
  /// Appends at least `want` bytes (if the input has them) after
  /// compacting the consumed prefix.
  void refill(std::size_t want);
  /// Aborts naming `what` and the JSON input from buffer_[at] on.
  [[noreturn]] void fail(std::string_view what, std::size_t at) const;

  /// The read buffer as text. An empty vector's data() may be null,
  /// which the memchr scans must never be handed.
  std::string_view buffered() const {
    return buffer_.empty() ? std::string_view("")
                           : std::string_view(buffer_.data(), buffer_.size());
  }

  std::string source_;  // "<stdin>", "<string>" or the path, for messages
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  bool exhausted_ = false;  // no more bytes behind buffer_
  bool json_ = false;
  bool json_done_ = false;  // the JSON batch marked `last` was cut
  CsvBytes buffer_;         // read bytes; [pos_, end) not yet parsed
  std::size_t pos_ = 0;     // consumed prefix (compacted at refill)
  std::size_t offset_ = 0;  // document offset of buffer_[0]
  std::size_t line_ = 1;    // CSV: 1-based line number of the next record
  std::vector<std::string> columns_;
  /// JSON: the bytes each column's key renders to in the writer's
  /// layout ('{' or ", " before it, ": " after), for the cursor's fast
  /// path.
  std::vector<std::string> json_keys_;
  std::size_t rows_ = 0;
  std::size_t batch_bytes_ = kBatchBytes;
  std::size_t input_bytes_ = 0;
  // next_row's batch and the cursor walking it.
  CsvBatch row_batch_;
  std::unique_ptr<CsvBatchCursor> row_cursor_;
  std::vector<std::string_view> views_;  // the owning next_row's scratch

  friend class CsvBatchCursor;
};

/// Walks one CsvBatch's records in order, splitting each with the
/// dialect's splitter and checking it against the reader's header (CSV:
/// its arity; JSON: its keys, in order).
class CsvBatchCursor {
 public:
  /// `batch` and `reader` must outlive the cursor; only the reader's
  /// source name and header are read, so cursors on several threads may
  /// share it while the caller keeps calling next_batch.
  CsvBatchCursor(const CsvBatch& batch, const CsvReader& reader);

  /// Fills `cells` with views of the next record's cells (valid until
  /// the next call); false at the end of the batch, or on a malformed
  /// record — then error() holds the message next_row would abort with.
  bool next(std::vector<std::string_view>* cells);

  /// Data-row index of the record last returned (or rejected).
  std::size_t row() const { return row_; }
  const std::string& error() const { return error_; }

 private:
  bool next_csv(std::vector<std::string_view>* cells);
  bool next_json(std::vector<std::string_view>* cells);

  const CsvBatch& batch_;
  const CsvReader& reader_;
  std::size_t pos_ = 0;
  std::size_t row_;
  std::size_t line_;         // CSV: line of the next record
  std::size_t returned_ = 0; // JSON: records returned so far
  bool done_ = false;        // JSON: the batch's records are all read
  std::string scratch_;
  std::string error_;
};

/// Validates that `text` is exactly one well-formed JSON value (full
/// grammar: objects, arrays, strings with escapes, numbers,
/// true/false/null). Aborts echoing `context` and the byte offset on
/// malformed input. Its string and number tokens are the report JSON
/// cursor's, so the two cannot disagree about what well-formed means.
/// The golden-corpus suite runs this over non-tabular archives (bench
/// JSON, phase-diagram summary JSON).
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
