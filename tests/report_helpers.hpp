// Test-side adapters onto the report serializer: render retained sweep
// results, or rows of text cells, to bytes through ReportWriter and
// RowRenderer, and read them back through the corpus readers. Tests that
// inspect report cells go through the same bytes the tools emit.
#pragma once

#include <string>
#include <vector>

#include "engine/csv_reader.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"

namespace p2p::engine {

/// Renders `rows` (one text() cell per column) into a report of
/// `columns`, one RowRenderer row per table row.
inline std::string render_text_rows(
    ReportFormat format, const std::vector<std::string>& columns,
    const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  ReportWriter writer(&out, format, columns);
  const RowRenderer renderer(format, columns);
  std::string arena;
  for (const auto& cells : rows) {
    RowRenderer::Row row(renderer, arena);
    for (const std::string& cell : cells) row.text(cell);
    row.end();
  }
  writer.write_rendered(arena, rows.size());
  writer.finish();
  return out;
}

/// A Table's rows re-rendered as a report (read_csv's inverse).
inline std::string render_table(const Table& table,
                                ReportFormat format = ReportFormat::kCsv) {
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    rows.push_back(table.row(i));
  }
  return render_text_rows(format, table.columns(), rows);
}

inline std::string render(const SweepResult& result,
                          ReportFormat format = ReportFormat::kCsv) {
  std::string out;
  ReportWriter writer(&out, format, sweep_columns(result.options));
  result.write(writer);
  writer.finish();
  return out;
}

inline std::string render(const FrontierResult& result,
                          ReportFormat format = ReportFormat::kCsv) {
  std::string out;
  ReportWriter writer(&out, format, frontier_columns(result.options));
  result.write(writer);
  writer.finish();
  return out;
}

/// The result's report cells, read back from its CSV bytes.
template <typename Result>
Table read_back(const Result& result) {
  return read_csv(render(result));
}

}  // namespace p2p::engine
