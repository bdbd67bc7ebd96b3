#include "engine/report.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "engine/csv_reader.hpp"
#include "report_helpers.hpp"
#include "util/json.hpp"

namespace p2p::engine {
namespace {

TEST(FormatNumber, FiniteValues) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(3.0), "3");
  EXPECT_EQ(format_number(-1.5), "-1.5");
  EXPECT_EQ(format_number(0.1), "0.1");
}

TEST(FormatNumber, RoundTripsExactBitPatterns) {
  // Regression: "%.10g" truncated doubles to 10 significant digits, so
  // corpus CSVs silently lost precision (pi came back 4 ulps off). The
  // shortest-round-trip form must parse back to the identical bits.
  const double values[] = {
      0.1,
      1.0 / 3.0,
      3.141592653589793,        // needs all 16 digits
      2.718281828459045,
      1e-300,                   // subnormal-adjacent magnitudes
      6.02214076e23,
      std::nextafter(1.0, 2.0),  // 1 + 1 ulp
      std::nextafter(0.0, 1.0),  // smallest subnormal
      -0.0,
      123456789.123456789,
  };
  for (const double v : values) {
    const std::string s = format_number(v);
    char* end = nullptr;
    const double parsed = std::strtod(s.c_str(), &end);
    ASSERT_EQ(end, s.c_str() + s.size()) << s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(v))
        << "'" << s << "' does not round-trip";
  }
}

TEST(FormatNumber, NonFiniteValues) {
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_number(std::nan("")), "nan");
}

// --- Text cells: CSV quoting and the JSON number / null / string
// trichotomy of RowRenderer::Row::text.

TEST(TextCells, CsvRowsAreCommaJoinedLines) {
  EXPECT_EQ(render_text_rows(ReportFormat::kCsv, {"a", "b", "verdict"},
                             {{"1", "2.5", "stable"},
                              {"2", "inf", "transient"}}),
            "a,b,verdict\n"
            "1,2.5,stable\n"
            "2,inf,transient\n");
}

TEST(TextCells, CsvQuotesSpecialCells) {
  EXPECT_EQ(render_text_rows(ReportFormat::kCsv, {"name"},
                             {{"a,b"}, {"say \"hi\""}, {"line\nbreak"}}),
            "name\n"
            "\"a,b\"\n"
            "\"say \"\"hi\"\"\"\n"
            "\"line\nbreak\"\n");
}

TEST(TextCells, CsvQuotesSpecialHeaderCells) {
  EXPECT_EQ(render_text_rows(ReportFormat::kCsv, {"a,b", "c"}, {{"1", "2"}}),
            "\"a,b\",c\n"
            "1,2\n");
}

TEST(TextCells, JsonNumbersUnquotedTextQuotedNonFiniteNull) {
  EXPECT_EQ(render_text_rows(ReportFormat::kJson, {"x", "verdict", "extra"},
                             {{"1.5", "stable", "nan"}}),
            "[\n"
            "  {\"x\": 1.5, \"verdict\": \"stable\", \"extra\": null}\n"
            "]\n");
}

TEST(TextCells, JsonSeparatesRowsWithCommas) {
  EXPECT_EQ(render_text_rows(ReportFormat::kJson, {"i"}, {{"1"}, {"2"}}),
            "[\n"
            "  {\"i\": 1},\n"
            "  {\"i\": 2}\n"
            "]\n");
}

TEST(TextCells, JsonQuotesNonJsonNumberSpellings) {
  // strtod would accept all of these, but JSON parsers reject them
  // unquoted; the emitter must quote anything off the JSON grammar.
  EXPECT_EQ(render_text_rows(ReportFormat::kJson, {"a", "b", "c", "d"},
                             {{"+5", "0x1F", " 12", "01"},
                              {"-0.5", "1e-3", "2E+4", "0"}}),
            "[\n"
            "  {\"a\": \"+5\", \"b\": \"0x1F\", \"c\": \" 12\", "
            "\"d\": \"01\"},\n"
            "  {\"a\": -0.5, \"b\": 1e-3, \"c\": 2E+4, \"d\": 0}\n"
            "]\n");
}

TEST(TextCells, JsonEscapesStringsAndMapsEveryNonFiniteSpelling) {
  EXPECT_EQ(render_text_rows(ReportFormat::kJson, {"i", "x", "note"},
                             {{"1", "inf", "has,comma"},
                              {"2", "-inf", "say \"hi\""},
                              {"3", "nan", "line\nbreak"},
                              {"4", "0.1", ""}}),
            "[\n"
            "  {\"i\": 1, \"x\": null, \"note\": \"has,comma\"},\n"
            "  {\"i\": 2, \"x\": null, \"note\": \"say \\\"hi\\\"\"},\n"
            "  {\"i\": 3, \"x\": null, \"note\": \"line\\nbreak\"},\n"
            "  {\"i\": 4, \"x\": 0.1, \"note\": \"\"}\n"
            "]\n");
}

// --- JsonWriter: the layout every summary, advisory, event line and
// bench file shares. Each document must also pass validate_json.

TEST(JsonWriter, BlockObjectsAndArraysNestInlineContainers) {
  std::string out;
  JsonWriter json(out);
  json.begin_block_object()
      .key("name").string("phase")
      .key("inline").begin_object()
      .key("a").integer(1)
      .key("b").begin_array().integer(2).integer(3).end_array()
      .end_object()
      .key("frontier").begin_object()
      .key("tol").number(0.001)
      .key("points").begin_block_array()
      .begin_object().key("row").integer(0).end_object()
      .begin_object().key("row").integer(1).end_object()
      .end_array()
      .end_object()
      .key("none").begin_block_array().end_array()
      .key("flag").boolean(true)
      .key("off").boolean(false)
      .key("missing").null()
      .end_object();
  EXPECT_EQ(out,
            "{\n"
            "  \"name\": \"phase\",\n"
            "  \"inline\": {\"a\": 1, \"b\": [2, 3]},\n"
            "  \"frontier\": {\"tol\": 0.001, \"points\": [\n"
            "    {\"row\": 0},\n"
            "    {\"row\": 1}\n"
            "  ]},\n"
            "  \"none\": [\n"
            "  ],\n"
            "  \"flag\": true,\n"
            "  \"off\": false,\n"
            "  \"missing\": null\n"
            "}\n");
  validate_json(out, "nested document");
}

TEST(JsonWriter, InlineObjectIsOneLine) {
  std::string out = "prefix ";
  JsonWriter json(out);
  json.begin_object()
      .key("t").number(0.25)
      .key("mix").begin_object().key("3").number(0.5).end_object()
      .key("empty").begin_array().end_array()
      .end_object();
  EXPECT_EQ(out,
            "prefix {\"t\": 0.25, \"mix\": {\"3\": 0.5}, \"empty\": []}\n");
  validate_json(out.substr(7), "one-line object");
}

TEST(JsonWriter, IntegersKeepEveryDigit) {
  std::string out;
  JsonWriter json(out);
  json.begin_array()
      .integer(12000000)
      .integer(std::uint64_t{9007199254740993})  // 2^53 + 1
      .integer(-7)
      .integer(std::numeric_limits<std::uint64_t>::max())
      .number(12000000.0)
      .number(9007199254740993.0)
      .end_array();
  EXPECT_EQ(out, "[12000000, 9007199254740993, -7, " +
                     std::to_string(std::numeric_limits<std::uint64_t>::max()) +
                     ", 1.2e+07, 9007199254740992]\n");
  validate_json(out, "integers");
}

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::string out;
  JsonWriter json(out);
  json.begin_object()
      .key("nan").number(std::nan(""))
      .key("inf").number(kInf)
      .key("-inf").number(-kInf)
      .key("zero").number(-0.0)
      .end_object();
  EXPECT_EQ(out,
            "{\"nan\": null, \"inf\": null, \"-inf\": null, \"zero\": -0}\n");
  validate_json(out, "non-finite numbers");
  std::string bare;
  append_json_number(bare, -kInf);
  append_json_number(bare, 1e300);
  EXPECT_EQ(bare, "null1e+300");
}

TEST(JsonWriter, StringsAndKeysEscapeQuotesBackslashesAndControls) {
  const char bytes[] = "q\"b\\n\nt\tr\rnul\0x\x01\x1f\x7f";
  const std::string raw(bytes, sizeof(bytes) - 1);
  std::string out;
  JsonWriter json(out);
  json.begin_object().key(raw).string(raw).end_object();
  const std::string escaped =
      "\"q\\\"b\\\\n\\nt\\tr\\rnul\\u0000x\\u0001\\u001f\x7f\"";
  EXPECT_EQ(out, "{" + escaped + ": " + escaped + "}\n");
  validate_json(out, "escaped strings");
  std::string plain;
  append_json_string(plain, "plain text");
  EXPECT_EQ(plain, "\"plain text\"");
}

TEST(JsonWriterDeath, MisplacedKeysAndClosesAbort) {
  std::string out;
  EXPECT_DEATH(JsonWriter(out).begin_object().integer(1), "key, value");
  EXPECT_DEATH(JsonWriter(out).begin_array().key("k"), "key, value");
  EXPECT_DEATH(JsonWriter(out).begin_object().end_array(), "does not match");
  EXPECT_DEATH(JsonWriter(out).begin_object().key("k").end_object(),
               "does not match");
  EXPECT_DEATH(JsonWriter(out).begin_array().begin_block_object(),
               "outermost");
}

// --- ReportWriter: rows reach it as rendered arenas, one row or many
// per write_rendered call. Archived corpora and the CI determinism diffs
// depend on the bytes, so every batching must produce the same report.

/// Streams `rows` to a string-backed writer one write_rendered call per
/// row, asserts the bytes equal a single call carrying every row in one
/// arena (so the JSON separator hold-back is right both in the writer
/// and in the arena), and returns the bytes.
std::string stream_and_check(const std::vector<std::string>& columns,
                             const std::vector<std::vector<std::string>>& rows,
                             ReportFormat format) {
  std::string streamed;
  ReportWriter writer(&streamed, format, columns);
  const RowRenderer renderer(format, columns);
  for (const auto& cells : rows) {
    std::string arena;
    RowRenderer::Row row(renderer, arena);
    for (const std::string& cell : cells) row.text(cell);
    row.end();
    writer.write_rendered(arena, 1);
  }
  writer.finish();
  EXPECT_EQ(streamed, render_text_rows(format, columns, rows));
  return streamed;
}

TEST(ReportWriter, CsvBytesEqualOneArena) {
  const std::string csv = stream_and_check(
      {"a", "b", "verdict"},
      {{"1", "2.5", "stable"}, {"2", "inf", "transient"}},
      ReportFormat::kCsv);
  EXPECT_EQ(csv,
            "a,b,verdict\n"
            "1,2.5,stable\n"
            "2,inf,transient\n");
}

TEST(ReportWriter, JsonBytesEqualOneArena) {
  // The row terminator depends on whether a successor exists — the
  // streaming writer cannot know until finish(), so this pins the
  // hold-back logic.
  const std::string json = stream_and_check(
      {"i", "x"}, {{"1", "nan"}, {"2", "0.5"}, {"3", "text"}},
      ReportFormat::kJson);
  EXPECT_EQ(json,
            "[\n"
            "  {\"i\": 1, \"x\": null},\n"
            "  {\"i\": 2, \"x\": 0.5},\n"
            "  {\"i\": 3, \"x\": \"text\"}\n"
            "]\n");
}

TEST(ReportWriter, EmptyTableInBothFormats) {
  EXPECT_EQ(stream_and_check({"a"}, {}, ReportFormat::kCsv), "a\n");
  EXPECT_EQ(stream_and_check({"a"}, {}, ReportFormat::kJson), "[\n]\n");
}

TEST(ReportWriter, SingleRowJsonHasNoTrailingComma) {
  EXPECT_EQ(stream_and_check({"i"}, {{"7"}}, ReportFormat::kJson),
            "[\n"
            "  {\"i\": 7}\n"
            "]\n");
}

TEST(ReportWriter, ManyRowsCrossTheFlushBoundaryToAFile) {
  // Push well past the 64 KiB flush threshold so the buffered file path
  // (background flushes + final fclose) is exercised, then compare the
  // on-disk bytes against the string-backed render.
  const std::string path = ::testing::TempDir() + "report_writer_flush.csv";
  const std::vector<std::string> columns = {"i", "payload"};
  const RowRenderer renderer(ReportFormat::kCsv, columns);
  std::vector<std::vector<std::string>> rows;
  {
    ReportWriter writer(path, ReportFormat::kCsv, columns);
    for (int i = 0; i < 4000; ++i) {
      rows.push_back({std::to_string(i), std::string(40, 'x')});
      std::string arena;
      RowRenderer::Row row(renderer, arena);
      row.number(i);
      row.text(rows.back()[1]);
      row.end();
      writer.write_rendered(arena, 1);
    }
    writer.finish();
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string bytes;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, got);
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_GT(bytes.size(), std::size_t{1} << 16);
  EXPECT_EQ(bytes, render_text_rows(ReportFormat::kCsv, columns, rows));
}

TEST(ReportWriter, RowsWrittenCountsRows) {
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"a"});
  const RowRenderer renderer(ReportFormat::kCsv, {"a"});
  EXPECT_EQ(writer.rows_written(), 0u);
  std::string arena;
  for (const double v : {1.0, 2.0}) {
    RowRenderer::Row row(renderer, arena);
    row.number(v);
    row.end();
  }
  writer.write_rendered(arena, 2);
  EXPECT_EQ(writer.rows_written(), 2u);
  writer.finish();
}

TEST(ReportWriterDeath, BytesWithoutRowsAbort) {
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"a", "b"});
  EXPECT_DEATH(writer.write_rendered("1,2\n", 0), "carry no rows");
  writer.finish();
}

TEST(ReportWriterDeath, WriteAfterFinishAborts) {
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"a"});
  writer.finish();
  EXPECT_DEATH(writer.write_rendered("1\n", 1), "finish");
}

TEST(ReportWriterDeath, UnopenablePathAbortsAtFirstFlush) {
  // The file opens lazily (so validation aborts upstream never truncate
  // a good file); a bad path therefore surfaces at the first flush —
  // here, finish() — not at construction.
  EXPECT_DEATH(
      {
        ReportWriter writer("/nonexistent-dir/report.csv",
                            ReportFormat::kCsv, {"a"});
        writer.finish();
      },
      "cannot open");
}

TEST(ReportWriter, AbortingProducerLeavesExistingFileUntouched) {
  // Regression: grid mode constructs the writer before the sweep runs;
  // if the sweep aborts in validation, a previously archived file named
  // by --out must survive. The old write-after-success path guaranteed
  // this; lazy opening preserves it.
  const std::string path = ::testing::TempDir() + "report_preserved.csv";
  write_text(path, "precious archived bytes\n");
  {
    ReportWriter writer(path, ReportFormat::kCsv, {"a"});
    // Writer destroyed without rows mid-"abort"… except a destructor
    // auto-finish would still flush the header. Simulate the abort path
    // precisely: P2P_ASSERT calls std::abort, which runs no destructors,
    // so the writer is simply never finished in-process. Here we can
    // only approximate by checking the file before finish().
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char buffer[64] = {};
    const std::size_t got = std::fread(buffer, 1, sizeof(buffer), file);
    std::fclose(file);
    EXPECT_EQ(std::string(buffer, got), "precious archived bytes\n");
    writer.finish();
  }
  std::remove(path.c_str());
}

// --- RowRenderer: the one cell encoder. Arenas it fills are handed to
// write_rendered verbatim.

TEST(RowRenderer, NumberPathsAgreeWithText) {
  // number(v) and text(format_number(v)) must be two spellings of the
  // same bytes — including the JSON null mapping for non-finite values.
  const double values[] = {0.0, -1.5, 1.0 / 3.0, 1e-300,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::nan("")};
  for (const ReportFormat format :
       {ReportFormat::kCsv, ReportFormat::kJson}) {
    RowRenderer renderer(format, {"v"});
    for (const double v : values) {
      std::string a, c;
      RowRenderer::Row ra(renderer, a);
      ra.number(v);
      ra.end();
      RowRenderer::Row rc(renderer, c);
      rc.text(format_number(v));
      rc.end();
      EXPECT_EQ(a, c) << format_number(v);
    }
  }
}

TEST(RowRenderer, CellsVerbatimSplicesCachedSpans) {
  // Cache the byte span of columns [1, 3) once, then build a row from
  // index + cached middle + tail; the row must equal one rendered cell
  // by cell. This is the constant-axis-run fast path in miniature.
  for (const ReportFormat format :
       {ReportFormat::kCsv, ReportFormat::kJson}) {
    RowRenderer renderer(format, {"i", "a", "b", "t"});
    std::string whole;
    RowRenderer::Row all(renderer, whole);
    all.number(7);
    all.number(1.5);
    all.number(2.5);
    all.number(9);
    all.end();

    std::string scratch;
    RowRenderer::Row probe(renderer, scratch);
    probe.number(7);
    const std::size_t mark = scratch.size();
    probe.number(1.5);
    probe.number(2.5);
    const std::string cached = scratch.substr(mark);
    probe.number(9);
    probe.end();

    std::string spliced;
    RowRenderer::Row row(renderer, spliced);
    row.number(7);
    row.cells_verbatim(cached, 2);
    row.number(9);
    row.end();
    EXPECT_EQ(spliced, whole);
  }
}

TEST(RowRendererDeath, WrongArityAborts) {
  RowRenderer renderer(ReportFormat::kCsv, {"a", "b"});
  EXPECT_DEATH(
      {
        std::string arena;
        RowRenderer::Row row(renderer, arena);
        row.number(1);
        row.end();  // one cell short
      },
      "arity");
  EXPECT_DEATH(
      {
        std::string arena;
        RowRenderer::Row row(renderer, arena);
        row.number(1);
        row.number(2);
        row.number(3);  // one cell over
      },
      "arity");
  EXPECT_DEATH(
      {
        std::string arena;
        RowRenderer::Row row(renderer, arena);
        row.cells_verbatim("x,y,z", 3);  // 3 cells into a 2-column row
      },
      "arity");
}

TEST(WriteTextDeath, UnwritableStdoutAborts) {
  // Output smaller than stdio's buffer reaches the descriptor only when
  // flushed; write_text must flush and fail loudly, not exit 0 with the
  // bytes lost.
  EXPECT_DEATH(
      {
        if (std::freopen("/dev/full", "w", stdout) == nullptr) std::abort();
        write_text("-", "small\n");
      },
      "short write to stdout");
}

}  // namespace
}  // namespace p2p::engine
