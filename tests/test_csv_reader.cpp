// Report reader robustness, in both dialects: rows -> report bytes ->
// rows must be exact (archived corpora are lossless records) through
// next_row and through batches of any size, and malformed input must
// abort echoing the offending line or byte — never misassign columns or
// invent cells.
#include "engine/csv_reader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "rand/rng.hpp"
#include "report_helpers.hpp"
#include "util/json.hpp"

namespace p2p::engine {
namespace {

void expect_tables_equal(const ReportTable& a, const ReportTable& b) {
  ASSERT_EQ(a.columns(), b.columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.row(r), b.row(r)) << "row " << r;
  }
}

TEST(ParseReportNumber, InvertsFormatNumber) {
  const double values[] = {0.0,
                           -0.0,
                           3.0,
                           -1.5,
                           0.1,
                           1.0 / 3.0,
                           3.141592653589793,
                           1e-300,
                           6.02214076e23,
                           std::nextafter(1.0, 2.0)};
  for (const double v : values) {
    // Round-trip through the appending formatter the worker-side row
    // renderer uses (format_number is a thin wrapper over it), with a
    // nonempty prefix so an accidental clear() would be caught.
    std::string token = "x";
    format_number_into(token, v);
    ASSERT_EQ(token.substr(0, 1), "x");
    token.erase(0, 1);
    EXPECT_EQ(token, format_number(v));
    const double parsed = parse_report_number(token, "test");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(v))
        << token;
  }
  EXPECT_TRUE(std::isnan(parse_report_number("nan", "test")));
  EXPECT_EQ(parse_report_number("inf", "test"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_report_number("-inf", "test"),
            -std::numeric_limits<double>::infinity());
}

TEST(ParseReportNumberDeath, RejectsNonNumbers) {
  EXPECT_DEATH(parse_report_number("", "ctx"), "report number");
  EXPECT_DEATH(parse_report_number("abc", "ctx"), "report number");
  EXPECT_DEATH(parse_report_number("1x", "ctx"), "report number");
  EXPECT_DEATH(parse_report_number("nan(2)", "ctx"), "report number");
  EXPECT_DEATH(parse_report_number("infinity", "ctx"), "report number");
}

TEST(ParseReportNumberDeath, RejectsOffDialectSpellingsStrtodWouldTake) {
  // strtod alone accepts all of these; format_number emits none of
  // them, and a corpus carrying them is corrupt, not convenient.
  EXPECT_DEATH(parse_report_number(" 2", "ctx"), "report number");
  EXPECT_DEATH(parse_report_number("+2", "ctx"), "report number");
  EXPECT_DEATH(parse_report_number("0x10", "ctx"), "report number");
  EXPECT_DEATH(parse_report_number("2 ", "ctx"), "report number");
}

TEST(ParseReportNumber, DialectTable) {
  // Every spelling the reader has pinned, with its verdict. Accepted
  // finite spellings must parse to strtod's double bit for bit (the
  // from_chars parser replaced a strtod one); the one intended change
  // is underflow, which strtod silently read as 0 and which
  // format_number cannot emit.
  struct Case {
    const char* cell;
    bool accepted;
  };
  const Case cases[] = {
      {"0", true},        {"-0", true},       {"3", true},
      {"-1.5", true},     {"0.1", true},      {"1.", true},
      {"00.5", true},     {"1e+05", true},    {"1E5", true},
      {"1e-300", true},   {"5e-324", true},   {"123456789012345", true},
      {"1234567890123456789", true},
      {"1.7976931348623157e+308", true},
      {"nan", true},      {"inf", true},      {"-inf", true},
      {"", false},        {"-", false},       {"abc", false},
      {"1x", false},      {"nan(2)", false},  {"-nan", false},
      {"infinity", false}, {"INF", false},    {" 2", false},
      {"2 ", false},      {"+2", false},      {"0x10", false},
      {".5", false},      {"-.5", false},     {"1e", false},
      {"1e400", false},   {"1e-400", false},  {"--1", false},
      {"1,5", false},
  };
  for (const Case& c : cases) {
    double v = 0;
    EXPECT_EQ(parse_report_number(c.cell, &v), c.accepted) << c.cell;
    const std::string cell = c.cell;
    if (!c.accepted || cell == "nan" || cell == "inf" || cell == "-inf") {
      continue;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
              std::bit_cast<std::uint64_t>(std::strtod(c.cell, nullptr)))
        << c.cell;
  }
  // The extremes format_number can emit round-trip exactly.
  for (const double v : {std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::max()}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  parse_report_number(format_number(v), "test")),
              std::bit_cast<std::uint64_t>(v))
        << format_number(v);
  }
  EXPECT_EQ(format_number(std::numeric_limits<double>::denorm_min()),
            "5e-324");
}

TEST(ParseReportNumberDeath, UnderflowIsRejected) {
  EXPECT_DEATH(parse_report_number("1e-400", "ctx"),
               "got \"1e-400\" in ctx");
}

TEST(ReadCsv, RoundTripsPlainTable) {
  ReportTable table({"a", "b", "verdict"});
  table.add_row({"1", "2.5", "stable"});
  table.add_row({"2", "inf", "transient"});
  const ReportTable back = read_report(render_table(table));
  expect_tables_equal(table, back);
  EXPECT_EQ(render_table(back), render_table(table));
}

TEST(ReadCsv, RoundTripsQuotedCells) {
  ReportTable table({"name", "note"});
  table.add_row({"a,b", "say \"hi\""});
  table.add_row({"line\nbreak", ""});
  table.add_row({"", "trailing,comma,"});
  table.add_row({"\"", "\n"});
  const ReportTable back = read_report(render_table(table));
  expect_tables_equal(table, back);
  EXPECT_EQ(render_table(back), render_table(table));
}

TEST(ReadCsv, RandomizedTablesRoundTripExactly) {
  // Property test: any table the emitter can produce must survive the
  // bytes round trip cell for cell, whatever mixture of quoting,
  // newlines, numbers and empties the cells carry.
  Rng rng(20260729);
  const std::string alphabet[] = {
      "x", "", ",", "\"", "\n", "a,b", "say \"hi\"", "1.5", "-inf",
      "nan", "0", "line\nbreak", "trailing ", " leading", "\"\"", "e,\"x\""};
  for (int iter = 0; iter < 25; ++iter) {
    const int cols = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{5}));
    std::vector<std::string> columns;
    for (int c = 0; c < cols; ++c) {
      columns.push_back("col" + std::to_string(c));
    }
    ReportTable table(columns);
    const int rows = static_cast<int>(rng.uniform_int(std::uint64_t{8}));
    for (int r = 0; r < rows; ++r) {
      std::vector<std::string> cells;
      for (int c = 0; c < cols; ++c) {
        cells.push_back(alphabet[rng.uniform_int(std::size(alphabet))]);
      }
      table.add_row(std::move(cells));
    }
    const ReportTable back = read_report(render_table(table));
    expect_tables_equal(table, back);
    EXPECT_EQ(render_table(back), render_table(table));
  }
}

TEST(ReadCsv, SweepTableWithScenarioColumnsRoundTrips) {
  // The real thing: a mixed-arrival sweep table (per-type columns, NaN
  // uncertainty cells, verdict strings) through bytes and back.
  SweepGrid grid = parse_grid("lambda=1,2;us=1;gamma=inf;k=4;mix=0:1:3");
  SweepOptions options;
  options.horizon = 20;
  options.replicas = 2;
  options.scenario = parse_scenario("example2:3,1");
  const std::string csv = sweep_report(grid, options);
  const ReportTable back = read_report(csv);
  EXPECT_EQ(render_table(back), csv);
  // And the schema survives recognizably.
  const ReportSchema schema = validate_report_schema(back.columns());
  EXPECT_EQ(schema.kind, ReportKind::kGrid);
  EXPECT_TRUE(schema.has_scenario);
  ASSERT_EQ(schema.mix_types.size(), 2u);
  EXPECT_EQ(schema.mix_types[0], PieceSet::single(0).with(1));
  EXPECT_EQ(schema.mix_types[1], PieceSet::single(2).with(3));
}

TEST(CsvReader, StreamsAFileAcrossTheFlushBoundary) {
  const std::string path = ::testing::TempDir() + "csv_reader_stream.csv";
  const std::vector<std::string> columns = {"i", "payload"};
  {
    ReportWriter writer(path, ReportFormat::kCsv, columns);
    const RowRenderer renderer(writer.format(), columns);
    for (int i = 0; i < 4000; ++i) {
      std::string arena;
      RowRenderer::Row row(renderer, arena);
      row.number(i);
      row.text(std::string(40, 'x'));
      row.end();
      writer.write_rendered(arena, 1);
    }
    writer.finish();
  }
  CsvReader reader(path);
  EXPECT_EQ(reader.columns(), columns);
  std::vector<std::string> cells;
  std::size_t rows = 0;
  while (reader.next_row(&cells)) {
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0], std::to_string(rows));
    ++rows;
  }
  EXPECT_EQ(rows, 4000u);
  EXPECT_EQ(reader.rows_read(), 4000u);
  std::remove(path.c_str());
}

/// Every row of `path`, read through the view overload, the owning
/// overload and the batch cursor (`batch_bytes` per batch).
struct ThreeReads {
  std::vector<std::vector<std::string>> views, strings, batches;
};

ThreeReads read_three_ways(const std::string& path, std::size_t batch_bytes) {
  ThreeReads out;
  {
    CsvReader reader(path);
    std::vector<std::string_view> cells;
    while (reader.next_row(&cells)) {
      out.views.emplace_back(cells.begin(), cells.end());
    }
  }
  {
    CsvReader reader(path);
    std::vector<std::string> cells;
    while (reader.next_row(&cells)) out.strings.push_back(cells);
  }
  {
    CsvReader reader(path);
    reader.set_batch_bytes(batch_bytes);
    CsvBatch batch;
    std::size_t row = 0;
    while (reader.next_batch(&batch)) {
      EXPECT_EQ(batch.first_row, row);
      CsvBatchCursor cursor(batch, reader);
      std::vector<std::string_view> cells;
      while (cursor.next(&cells)) {
        EXPECT_EQ(cursor.row(), row++);
        out.batches.emplace_back(cells.begin(), cells.end());
      }
      EXPECT_TRUE(cursor.error().empty()) << cursor.error();
    }
    EXPECT_EQ(reader.rows_read(), row);
  }
  return out;
}

TEST(CsvReader, ViewStringAndBatchReadsAgreeAcrossRefillBoundaries) {
  // Quoted, escaped and embedded-newline cells of varying length, laid
  // out so records straddle every 64 KiB refill of a file-backed reader
  // (and, at 4093-byte batches, most batch boundaries).
  const std::vector<std::string> columns = {"i", "quoted", "plain", "tail"};
  const std::string cells[] = {"a,b",        "say \"hi\"", "line\nbreak",
                               "\"",         "\n",          "",
                               "x\n\"y\",z", "1.5"};
  std::vector<std::vector<std::string>> rows;
  Rng rng(20261017);
  std::size_t bytes = 0;
  for (int i = 0; bytes < 5 * 65536; ++i) {
    std::vector<std::string> row = {
        std::to_string(i), cells[rng.uniform_int(std::size(cells))],
        std::string(rng.uniform_int(std::uint64_t{300}), 'p'),
        cells[rng.uniform_int(std::size(cells))] +
            std::string(rng.uniform_int(std::uint64_t{40}), '"')};
    for (const std::string& c : row) bytes += c.size() + 3;
    rows.push_back(std::move(row));
  }
  // Two quoted cells span several reads: four runs of 25,000 '"'
  // (50,000 bytes doubled), each followed by a newline and a comma, so a
  // quote misread at a read's end ends the record early. Cutting
  // 4093-byte batches, a file-backed reader reads 64 KiB at a time, so
  // reads end at multiples of 65536: the first cell's runs start at odd
  // offsets, so a read ending inside a run splits a "" pair; the
  // second's start at even ones, so reads end between pairs.
  constexpr std::size_t kRead = 65536;
  constexpr std::size_t kRun = 25000, kPeriod = 2 * kRun + 2;
  std::string runs;
  for (int k = 0; k < 4; ++k) runs += std::string(kRun, '"') + "\n,";
  for (const std::size_t parity : {1, 0}) {
    const std::string index = std::to_string(rows.size());
    // The runs follow the text so far, the index, ',' and the opening
    // '"' (and one pad byte when the parity needs it).
    const std::size_t start =
        render_text_rows(ReportFormat::kCsv, columns, rows).size() +
        index.size() + 2;
    const std::size_t pad = start % 2 == parity ? 0 : 1;
    const std::size_t first = start + pad;
    std::size_t inside = 0, split = 0;  // read ends inside a run / a pair
    for (std::size_t end = kRead * (first / kRead + 1);
         end < first + 4 * kPeriod; end += kRead) {
      const std::size_t in_run = (end - first) % kPeriod;
      if (in_run == 0 || in_run >= 2 * kRun) continue;
      ++inside;
      split += in_run % 2;
    }
    EXPECT_GE(inside, 2u);
    EXPECT_EQ(split, parity == 1 ? inside : 0u);
    rows.push_back({index, std::string(pad, 'q') + runs, "p", "1.5"});
  }
  const std::string text = render_text_rows(ReportFormat::kCsv, columns, rows);
  const std::string path = ::testing::TempDir() + "csv_reader_three_ways.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  }
  // Small batches are copied out of the read buffer; batches past one
  // read chunk take the buffer itself and keep only its tail.
  for (const std::size_t batch_bytes :
       {std::size_t{4093}, std::size_t{70001}}) {
    const ThreeReads got = read_three_ways(path, batch_bytes);
    EXPECT_EQ(got.views, rows);
    EXPECT_EQ(got.strings, rows);
    EXPECT_EQ(got.batches, rows) << "batches of " << batch_bytes;
  }
  // The in-memory reader sees the same document.
  const ReportTable table = read_report(text);
  ASSERT_EQ(table.num_rows(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(table.row(r), rows[r]) << "row " << r;
  }
  std::remove(path.c_str());
}

TEST(CsvReaderDeath, ErrorsAfterAMultiLineCellNameTheirOwnLine) {
  // Row 1's quoted cell spans lines 2-3, so the bad record is line 4 —
  // through next_row and through a batch cursor alike.
  const std::string arity = "a,b\n\"x\ny\",1\nonly\n";
  const std::string quoting = "a,b\n\"x\ny\",1\n\"p\"q,1\n";
  EXPECT_DEATH(read_report(arity), "line 4: \"only\"");
  EXPECT_DEATH(read_report(quoting), "quoted cell must be followed.*line 4");
  for (const std::string& text : {arity, quoting}) {
    CsvReader reader = CsvReader::from_text(text);
    reader.set_batch_bytes(1);  // one record per batch
    CsvBatch batch;
    std::vector<std::string_view> cells;
    ASSERT_TRUE(reader.next_batch(&batch));
    EXPECT_EQ(batch.first_line, 2u);
    EXPECT_TRUE(CsvBatchCursor(batch, reader).next(&cells));
    ASSERT_TRUE(reader.next_batch(&batch));
    EXPECT_EQ(batch.first_line, 4u);
    CsvBatchCursor cursor(batch, reader);
    EXPECT_FALSE(cursor.next(&cells));
    EXPECT_EQ(cursor.row(), 1u);
    EXPECT_NE(cursor.error().find("<string> line 4"), std::string::npos)
        << cursor.error();
  }
}

TEST(CsvReader, TruncatedTailIsRejectedAfterTheRowsBeforeIt) {
  // The cut-off record rides in the last batch; its cursor yields the
  // whole rows first, then rejects it.
  for (const std::size_t batch_bytes : {std::size_t{1}, std::size_t{64}}) {
    CsvReader reader = CsvReader::from_text("a,b\n1,2\n3,4");
    reader.set_batch_bytes(batch_bytes);
    CsvBatch batch;
    std::vector<std::string_view> cells;
    std::size_t rows = 0;
    std::string error;
    while (error.empty() && reader.next_batch(&batch)) {
      CsvBatchCursor cursor(batch, reader);
      while (cursor.next(&cells)) ++rows;
      error = cursor.error();
      if (!error.empty()) {
        EXPECT_EQ(cursor.row(), 1u);
      }
    }
    EXPECT_EQ(rows, 1u);
    EXPECT_NE(error.find("truncated report CSV"), std::string::npos);
    EXPECT_NE(error.find("line 3: \"3,4\""), std::string::npos) << error;
    EXPECT_FALSE(reader.next_batch(&batch));
  }
}

TEST(CsvReaderDeath, TruncatedFinalRecordAborts) {
  // The writer '\n'-terminates every row; a file cut mid-record must
  // not silently drop (or half-parse) the final row.
  EXPECT_DEATH(read_report("a,b\n1,2\n3,4"), "truncated");
}

TEST(CsvReaderDeath, WrongArityEchoesTheOffendingLine) {
  EXPECT_DEATH(read_report("a,b\n1,2\nonly-one\n"), "only-one");
  EXPECT_DEATH(read_report("a,b\n1,2\nonly-one\n"), "line 3");
  EXPECT_DEATH(read_report("a,b\n1,2,3\n"), "3 cells, expected 2");
}

TEST(CsvReaderDeath, MalformedQuotingAborts) {
  EXPECT_DEATH(read_report("a\n\"x\"y\n"), "quoted cell must be followed");
  EXPECT_DEATH(read_report("a\nx\"y\n"), "bare");
  EXPECT_DEATH(read_report("a\n\"unclosed\n"), "truncated");
}

TEST(CsvReaderDeath, EmptyDocumentAborts) {
  EXPECT_DEATH(read_report(""), "empty");
}

TEST(CsvReaderDeath, MissingFileAborts) {
  EXPECT_DEATH(CsvReader("/nonexistent-dir/corpus.csv"), "cannot open");
}

TEST(ReadJson, RoundTripsReportJson) {
  ReportTable table({"i", "x", "verdict"});
  table.add_row({"1", "nan", "stable"});
  table.add_row({"2", "0.5", "transient"});
  table.add_row({"3", "1e-3", "say \"hi\""});
  const ReportTable back =
      read_report(render_table(table, ReportFormat::kJson));
  expect_tables_equal(table, back);
  // Numbers keep their literal spelling, so re-emission is identical.
  EXPECT_EQ(render_table(back, ReportFormat::kJson),
            render_table(table, ReportFormat::kJson));
}

TEST(ReadJson, NullReadsBackAsNan) {
  // inf/-inf/nan all emit as null; nan is the one spelling that maps
  // back without inventing a sign.
  ReportTable table({"x"});
  table.add_row({"inf"});
  const ReportTable back =
      read_report(render_table(table, ReportFormat::kJson));
  EXPECT_EQ(back.row(0)[0], "nan");
}

/// `rows` as a report JSON in a layout the writer never uses but JSON
/// allows: "minified" (one line), "pretty" (one key per line), "comma"
/// (commas leading the lines) or "crlf" (the writer's lines, "\r\n"
/// ended).
std::string json_layout(const std::string& layout,
                        const std::vector<std::string>& columns,
                        const std::vector<std::vector<std::string>>& rows) {
  // Take each cell's JSON spelling from the writer's own rendering.
  std::vector<std::vector<std::string>> spelled;
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const std::string one =
          render_text_rows(ReportFormat::kJson, {columns[c]}, {{row[c]}});
      const std::size_t colon = one.find("\": ") + 3;
      cells.push_back(one.substr(colon, one.rfind('}') - colon));
    }
    spelled.push_back(std::move(cells));
  }
  std::string out = layout == "crlf" ? "[\r\n" : "[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += layout == "comma" ? "\n, " : ",";
    if (layout == "crlf" && r > 0) out += "\r\n";
    out += layout == "pretty" ? "{\n" : "{";
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += layout == "pretty" ? ",\n" : ", ";
      if (layout == "pretty") out += "    ";
      append_json_string(out, columns[c]);
      out += layout == "pretty" ? " :\n      " : ": ";
      out += spelled[r][c];
    }
    out += layout == "pretty" ? "\n  }" : "}";
  }
  out += layout == "crlf" ? "\r\n]\r\n" : "]";
  return out;
}

TEST(ReadJson, EveryLayoutReadsTheSameRowsThroughEveryBatchSize) {
  // Cells that exercise the string grammar — escaped quotes and
  // backslashes, \u00xx control characters, raw UTF-8, and the bytes
  // the batch cutter counts ('}', ',') inside strings — in rows long
  // enough that 64 KiB refills and small batches cut between escapes.
  const std::vector<std::string> columns = {"i", "say \"key\"", "plain",
                                            "tail"};
  const std::string cells[] = {"a,b",      "say \"hi\"", "line\nbreak",
                               "\x01\x1f", "\xc3\xa9\\", "}",
                               "\"},\n{",  "1.5",       "-0",
                               "1e-300",   "nan",       ""};
  std::vector<std::vector<std::string>> rows;
  Rng rng(20261019);
  std::size_t bytes = 0;
  for (int i = 0; bytes < 3 * 65536; ++i) {
    std::vector<std::string> row = {
        std::to_string(i), cells[rng.uniform_int(std::size(cells))],
        std::string(rng.uniform_int(std::uint64_t{300}), 'p'),
        cells[rng.uniform_int(std::size(cells))] +
            std::string(rng.uniform_int(std::uint64_t{40}), '"')};
    for (const std::string& c : row) bytes += c.size() + 8;
    rows.push_back(std::move(row));
  }
  const std::string path = ::testing::TempDir() + "csv_reader_layouts.json";
  for (const std::string layout :
       {"writer", "minified", "pretty", "comma", "crlf"}) {
    const std::string text =
        layout == "writer"
            ? render_text_rows(ReportFormat::kJson, columns, rows)
            : json_layout(layout, columns, rows);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
      std::fclose(f);
    }
    for (const std::size_t batch_bytes :
         {std::size_t{1}, std::size_t{4093}, std::size_t{70001}}) {
      const ThreeReads got = read_three_ways(path, batch_bytes);
      EXPECT_EQ(got.views, rows) << layout;
      EXPECT_EQ(got.strings, rows) << layout;
      EXPECT_EQ(got.batches, rows) << layout << ", batches of " << batch_bytes;
    }
    EXPECT_EQ(CsvReader::from_text(text).columns(), columns) << layout;
  }
  std::remove(path.c_str());
}

TEST(ReadJson, DialectIsTheFirstNonWhitespaceByte) {
  const ReportTable json = read_report(" \n\t[{\"a\": 1}]");
  EXPECT_EQ(json.columns(), std::vector<std::string>{"a"});
  EXPECT_EQ(json.row(0), std::vector<std::string>{"1"});
  // CSV keeps every byte, leading whitespace included.
  EXPECT_EQ(CsvReader::from_text(" a\n1\n").columns(),
            std::vector<std::string>{" a"});
}

TEST(ReadJsonDeath, MalformedDocumentsAbort) {
  EXPECT_DEATH(read_report("{}"), "expected '\\['");
  EXPECT_DEATH(read_report("[\n]\n"), "empty report JSON");
  EXPECT_DEATH(read_report("[{\"a\": 1}, {\"b\": 1}]"), "do not match");
  EXPECT_DEATH(read_report("[{\"a\": 1}, {\"a\": 1, \"b\": 2}]"),
               "do not match");
  EXPECT_DEATH(read_report("[{\"a\": true}]"), "numbers, strings or null");
  EXPECT_DEATH(read_report("[{\"a\": 1}] trailing"), "trailing");
  EXPECT_DEATH(read_report("[{\"a\": 1}"), "end of JSON");
  EXPECT_DEATH(read_report("[{\"a\": 01}]"), "expected"); // not a JSON number
}

TEST(ReadJsonDeath, DocumentsThatStopAfterARowAbort) {
  // The cutter hands the document's end to the cursor as a last batch,
  // empty when the bytes stop right after a row's ','.
  EXPECT_DEATH(read_report("[\n  {\"a\": 1},\n"), "expected '\\{'");
  EXPECT_DEATH(read_report("[\n  {\"a\": 1},\n  {\"a\": 2}\n"),
               "end of JSON");
  EXPECT_DEATH(read_report("[\n  {\"a\": 1},\n]\n"), "expected '\\{'");
}

TEST(ReadJson, ErrorsNameTheirByteAtEveryBatchSize) {
  // The third row's cell is not a number: the cursor that meets it
  // names the document offset of the bad byte and echoes from there,
  // however the rows were cut into batches.
  const std::string text =
      "[\n  {\"a\": 1},\n  {\"a\": 2},\n  {\"a\": 3x},\n  {\"a\": 4}\n]\n";
  const std::size_t bad = text.find("x}");
  for (const std::size_t batch_bytes : {std::size_t{1}, std::size_t{64}}) {
    CsvReader reader = CsvReader::from_text(text);
    reader.set_batch_bytes(batch_bytes);
    CsvBatch batch;
    std::vector<std::string_view> cells;
    std::string error;
    std::size_t row = 0;
    while (error.empty() && reader.next_batch(&batch)) {
      CsvBatchCursor cursor(batch, reader);
      while (cursor.next(&cells)) ++row;
      error = cursor.error();
      if (!error.empty()) {
        EXPECT_EQ(cursor.row(), 2u);
      }
    }
    EXPECT_EQ(row, 2u) << "batches of " << batch_bytes;
    EXPECT_EQ(error, "expected '}' in report JSON (<string> byte " +
                         std::to_string(bad) + ": \"x},\")")
        << "batches of " << batch_bytes;
  }
}

TEST(ReadJson, BatchesEndAfterARowsCommaAndCountTheirRows) {
  // Writer layout: each row line ends "},", so every batch ends on one
  // and a one-byte target cuts one row per batch; the last batch holds
  // the closing bracket.
  const std::string text =
      "[\n  {\"a\": \"}\"},\n  {\"a\": 2},\n  {\"a\": 3}\n]\n";
  CsvReader reader = CsvReader::from_text(text);
  reader.set_batch_bytes(1);
  CsvBatch batch;
  std::vector<std::size_t> rows, first_rows;
  std::vector<bool> last;
  while (reader.next_batch(&batch)) {
    rows.push_back(batch.rows);
    first_rows.push_back(batch.first_row);
    last.push_back(batch.last);
    EXPECT_EQ(text.substr(batch.first_byte, batch.bytes.size()),
              std::string(batch.bytes.begin(), batch.bytes.end()));
  }
  EXPECT_EQ(rows, (std::vector<std::size_t>{1, 1, 1}));
  EXPECT_EQ(first_rows, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(last, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(reader.rows_read(), 3u);
}

TEST(ValidateJson, AcceptsArbitraryWellFormedDocuments) {
  validate_json("{\"cells\": 100000, \"curve\": [{\"t\": 1, "
                "\"ok\": true}, {\"t\": null}], \"s\": \"x\\u00e9\"}",
                "test");
  validate_json("  [1, -2.5e10, []]  ", "test");
  validate_json("\"just a string\"", "test");
}

TEST(ValidateJsonDeath, RejectsMalformedDocuments) {
  EXPECT_DEATH(validate_json("{", "ctx"), "ctx");
  EXPECT_DEATH(validate_json("[1,]", "ctx"), "malformed");
  EXPECT_DEATH(validate_json("{\"a\" 1}", "ctx"), "expected ':'");
  EXPECT_DEATH(validate_json("01", "ctx"), "trailing");
  EXPECT_DEATH(validate_json("[1] [2]", "ctx"), "trailing");
  EXPECT_DEATH(validate_json("\"\\x\"", "ctx"), "escape");
  EXPECT_DEATH(validate_json(std::string(300, '['), "ctx"), "depth");
}

TEST(ParseMixColumnType, InvertsMixColumnName) {
  EXPECT_EQ(parse_mix_column_type("lambda_t1.2"),
            PieceSet::single(0).with(1));
  EXPECT_EQ(parse_mix_column_type("lambda_t2.3.4"),
            PieceSet::single(1).with(2).with(3));
  EXPECT_EQ(parse_mix_column_type("lambda_t64"), PieceSet::single(63));
  // Round trip through the writer's namer.
  const PieceSet type = PieceSet::single(4).with(9).with(30);
  EXPECT_EQ(parse_mix_column_type(mix_column_name(type)), type);
}

TEST(ParseMixColumnTypeDeath, MalformedNamesAbort) {
  EXPECT_DEATH(parse_mix_column_type("lambda_t"), "per-type");
  EXPECT_DEATH(parse_mix_column_type("lambda_t0"), "strictly increasing");
  EXPECT_DEATH(parse_mix_column_type("lambda_t2.1"), "strictly increasing");
  EXPECT_DEATH(parse_mix_column_type("lambda_t1.1"), "strictly increasing");
  EXPECT_DEATH(parse_mix_column_type("lambda_t65"), "strictly increasing");
  EXPECT_DEATH(parse_mix_column_type("lambda_tx"), "strictly increasing");
  EXPECT_DEATH(parse_mix_column_type("lambda_t+1"), "strictly increasing");
  EXPECT_DEATH(parse_mix_column_type("verdict"), "per-type");
}

TEST(ValidateReportSchema, AcceptsBothWriterHeaders) {
  SweepOptions plain;
  const ReportSchema grid = validate_report_schema(sweep_columns(plain));
  EXPECT_EQ(grid.kind, ReportKind::kGrid);
  EXPECT_FALSE(grid.has_scenario);
  EXPECT_EQ(grid.num_columns, sweep_columns(plain).size());
  EXPECT_EQ(grid.tail_start, sweep_schema_head().size());

  SweepOptions mixed;
  mixed.scenario = parse_scenario("example3");
  const ReportSchema scen = validate_report_schema(sweep_columns(mixed));
  EXPECT_TRUE(scen.has_scenario);
  ASSERT_EQ(scen.mix_types.size(), 3u);

  const ReportSchema frontier =
      validate_report_schema(frontier_columns(mixed));
  EXPECT_EQ(frontier.kind, ReportKind::kFrontier);
  EXPECT_TRUE(frontier.has_scenario);
}

TEST(ValidateReportSchema, BackendColumnIsOptionalAndTrailing) {
  // Simulating writers append sim_backend after the fixed tail; the
  // reader flags it. Grid and frontier both carry it.
  SweepOptions simulating;
  const ReportSchema grid = validate_report_schema(sweep_columns(simulating));
  EXPECT_TRUE(grid.has_backend);
  const ReportSchema frontier =
      validate_report_schema(frontier_columns(simulating));
  EXPECT_TRUE(frontier.has_backend);

  // Theory-only grids never ran a simulator, so the column is absent —
  // which also keeps every pre-backend archive (the same header shape)
  // validating.
  SweepOptions theory;
  theory.theory_only = true;
  const std::vector<std::string> cols = sweep_columns(theory);
  const ReportSchema bare = validate_report_schema(cols);
  EXPECT_FALSE(bare.has_backend);
  EXPECT_EQ(std::count(cols.begin(), cols.end(),
                       std::string(kSimBackendColumn)),
            0);
}

TEST(ValidateReportSchemaDeath, MisplacedBackendColumnAborts) {
  // sim_backend is only legal as the final column, after the full tail.
  SweepOptions options;
  std::vector<std::string> cols = sweep_columns(options);
  cols.pop_back();
  cols.insert(cols.begin() + 1, kSimBackendColumn);
  EXPECT_DEATH(validate_report_schema(cols), "mismatch at column 1");
}

TEST(ValidateReportSchemaDeath, ReorderedHeaderAborts) {
  SweepOptions options;
  std::vector<std::string> cols = sweep_columns(options);
  std::swap(cols[1], cols[2]);  // lambda <-> us
  EXPECT_DEATH(validate_report_schema(cols), "mismatch at column 1");
}

TEST(ValidateReportSchemaDeath, TruncatedHeaderAborts) {
  SweepOptions options;
  std::vector<std::string> cols = sweep_columns(options);
  cols.pop_back();  // sim_backend is optional — dropping it alone is legal
  cols.pop_back();  // ...but losing ctmc_mean_peers truncates the tail
  EXPECT_DEATH(validate_report_schema(cols), "end of the header");
}

TEST(ValidateReportSchemaDeath, TrailingColumnsAbort) {
  SweepOptions options;
  std::vector<std::string> cols = sweep_columns(options);
  cols.push_back("extra");
  EXPECT_DEATH(validate_report_schema(cols), "trailing columns");
}

TEST(ValidateReportSchemaDeath, UnknownFirstColumnAborts) {
  EXPECT_DEATH(validate_report_schema({"time", "value"}),
               "not a sweep report header");
}

TEST(ValidateReportSchemaDeath, LambdaEmptyWithoutTypesAborts) {
  SweepOptions options;
  std::vector<std::string> cols = sweep_columns(options);
  cols.insert(cols.begin() + sweep_schema_head().size(), "lambda_empty");
  EXPECT_DEATH(validate_report_schema(cols), "no \"lambda_t\" columns");
}

TEST(ValidateReportSchemaDeath, RepeatedTypeColumnAborts) {
  SweepOptions options;
  options.scenario = parse_scenario("example2");
  std::vector<std::string> cols = sweep_columns(options);
  cols[sweep_schema_head().size() + 2] = cols[sweep_schema_head().size() + 1];
  EXPECT_DEATH(validate_report_schema(cols), "repeats an arrival type");
}

}  // namespace
}  // namespace p2p::engine
