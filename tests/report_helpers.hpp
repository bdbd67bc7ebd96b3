// Test-side adapters onto the report serializer: run the streamed sweep
// and frontier into in-memory reports, render rows of text cells through
// ReportWriter and RowRenderer, and read the bytes back through the
// report reader (CsvReader, either dialect). Tests that inspect a cell's
// values decode them from the same bytes the tools emit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/phase_diagram.hpp"
#include "core/stability.hpp"
#include "engine/csv_reader.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
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

/// A report read back whole: named columns and rows of text cells. The
/// library streams rows and keeps none; tests that look rows up by index
/// or tamper with them hold them here.
class ReportTable {
 public:
  explicit ReportTable(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  std::size_t num_columns() const { return columns_.size(); }
  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::string>& row(std::size_t i) const {
    return rows_[i];
  }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Appends a row; it must have exactly num_columns() cells.
  void add_row(std::vector<std::string> cells) {
    EXPECT_EQ(cells.size(), columns_.size()) << "row arity";
    rows_.push_back(std::move(cells));
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Every row of the report `text`, in either dialect, through
/// CsvReader::next_row.
inline ReportTable read_report(std::string text) {
  CsvReader reader = CsvReader::from_text(std::move(text));
  ReportTable table(reader.columns());
  std::vector<std::string> cells;
  while (reader.next_row(&cells)) table.add_row(cells);
  return table;
}

/// read_report over the file at `path`.
inline ReportTable read_report_file(const std::string& path) {
  CsvReader reader(path);
  ReportTable table(reader.columns());
  std::vector<std::string> cells;
  while (reader.next_row(&cells)) table.add_row(cells);
  return table;
}

/// A table's rows re-rendered as a report (read_report's inverse).
inline std::string render_table(const ReportTable& table,
                                ReportFormat format = ReportFormat::kCsv) {
  return render_text_rows(format, table.columns(), table.rows());
}

/// build_phase_grid over the report `text` through a CsvReader cutting
/// `batch_bytes` batches, decoded on `threads` threads.
inline analysis::PhaseGrid phase_grid_of(
    std::string text, const std::string& x = "", const std::string& y = "",
    int threads = 1, std::size_t batch_bytes = CsvReader::kBatchBytes) {
  CsvReader reader = CsvReader::from_text(std::move(text));
  reader.set_batch_bytes(batch_bytes);
  return analysis::build_phase_grid(reader, x, y, threads);
}

/// phase_grid_of over a table's rows rendered in `format`.
inline analysis::PhaseGrid phase_grid_of(
    const ReportTable& table, const std::string& x = "",
    const std::string& y = "", ReportFormat format = ReportFormat::kCsv) {
  return phase_grid_of(render_table(table, format), x, y);
}

/// build_box_grid over the report `text`.
inline analysis::BoxGrid box_grid_of(std::string text) {
  CsvReader reader = CsvReader::from_text(std::move(text));
  return analysis::build_box_grid(reader);
}

/// box_grid_of over a table's rows rendered in `format`.
inline analysis::BoxGrid box_grid_of(
    const ReportTable& table, ReportFormat format = ReportFormat::kCsv) {
  return box_grid_of(render_table(table, format));
}

/// The report run_sweep_stream writes for `grid` under `options`.
inline std::string sweep_report(const SweepGrid& grid,
                                const SweepOptions& options,
                                ReportFormat format = ReportFormat::kCsv) {
  std::string out;
  ReportWriter writer(&out, format, sweep_columns(options));
  run_sweep_stream(grid, options, writer);
  writer.finish();
  return out;
}

/// The report run_frontier_stream writes for `grid` under `options`.
inline std::string frontier_report(const SweepGrid& grid,
                                   const SweepOptions& options,
                                   const RefineOptions& refine,
                                   ReportFormat format = ReportFormat::kCsv) {
  std::string out;
  ReportWriter writer(&out, format, frontier_columns(options));
  run_frontier_stream(grid, options, refine, writer);
  writer.finish();
  return out;
}

/// One row of a read report: cells looked up by column name, numbers
/// through parse_report_number. The engine prints the shortest
/// round-trip spelling, so a decoded double is the one it formatted.
class ReportRow {
 public:
  ReportRow(const ReportTable& table, std::size_t row)
      : table_(table), row_(row) {}

  bool has(const std::string& column) const {
    return index(column) < table_.num_columns();
  }
  const std::string& text(const std::string& column) const {
    const std::size_t i = index(column);
    EXPECT_LT(i, table_.num_columns()) << "no column " << column;
    return table_.row(row_).at(i);
  }
  double number(const std::string& column) const {
    return parse_report_number(text(column), column);
  }
  Stability verdict(const std::string& column) const {
    const std::string& token = text(column);
    for (const Stability v : {Stability::kPositiveRecurrent,
                              Stability::kTransient, Stability::kBorderline}) {
      if (token == to_string(v)) return v;
    }
    ADD_FAILURE() << "unknown verdict " << token << " in " << column;
    return Stability::kBorderline;
  }

 private:
  std::size_t index(const std::string& column) const {
    const std::vector<std::string>& columns = table_.columns();
    return static_cast<std::size_t>(
        std::find(columns.begin(), columns.end(), column) - columns.begin());
  }

  const ReportTable& table_;
  std::size_t row_;
};

/// The cells of a read grid report, decoded by column name. Fields of
/// absent optional columns keep CellResult's defaults.
inline std::vector<CellResult> decode_cells(const ReportTable& table) {
  std::vector<CellResult> cells;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const ReportRow row(table, r);
    CellResult c;
    c.index = static_cast<std::size_t>(row.number("cell"));
    c.lambda = row.number("lambda");
    c.us = row.number("us");
    c.mu = row.number("mu");
    c.gamma = row.number("gamma");
    c.k = static_cast<int>(row.number("k"));
    c.eta = row.number("eta");
    c.flash = static_cast<std::int64_t>(row.number("flash"));
    c.mix = row.number("mix");
    c.hetero = row.number("hetero");
    c.theory.verdict = row.verdict("verdict");
    c.theory.margin = row.number("margin");
    c.theory.critical_piece = static_cast<int>(row.number("critical_piece"));
    c.sim.replicas = static_cast<int>(row.number("replicas"));
    c.sim.final_peers_mean = row.number("sim_final_peers");
    c.sim.mean_peers_mean = row.number("sim_mean_peers");
    c.sim.mean_sojourn = row.number("sim_mean_sojourn");
    c.sim.mean_peers_sem = row.number("sim_mean_peers_sem");
    c.sim.mean_peers_lo = row.number("sim_mean_peers_lo");
    c.sim.mean_peers_hi = row.number("sim_mean_peers_hi");
    c.ctmc_mean_peers = row.number("ctmc_mean_peers");
    if (row.has(kSimBackendColumn)) {
      const bool typecount = row.text(kSimBackendColumn) ==
                             to_string(SimBackend::kTypeCount);
      c.backend = typecount ? SimBackend::kTypeCount : SimBackend::kPerPeer;
    }
    if (row.has(kFluidVerdictColumn)) {
      c.fluid = row.verdict(kFluidVerdictColumn);
    }
    cells.push_back(c);
  }
  return cells;
}

/// The points of a read frontier report, decoded by column name.
inline std::vector<FrontierPoint> decode_points(const ReportTable& table) {
  std::vector<FrontierPoint> points;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const ReportRow row(table, r);
    FrontierPoint pt;
    pt.row = static_cast<std::size_t>(row.number("row"));
    pt.bracketed = row.number("bracketed") != 0;
    pt.value = row.number("value");
    pt.value_lo = row.number("value_lo");
    pt.value_hi = row.number("value_hi");
    pt.margin = row.number("margin");
    pt.params.lambda = row.number("lambda");
    pt.params.us = row.number("us");
    pt.params.mu = row.number("mu");
    pt.params.gamma = row.number("gamma");
    pt.params.k = static_cast<int>(row.number("k"));
    pt.params.eta = row.number("eta");
    pt.params.flash = static_cast<std::int64_t>(row.number("flash"));
    pt.params.mix = row.number("mix");
    pt.params.hetero = row.number("hetero");
    if (row.has(kPolicyColumn)) {
      pt.params.policy = parse_policy(row.text(kPolicyColumn));
    }
    pt.sim.replicas = static_cast<int>(row.number("replicas"));
    pt.sim.mean_peers_mean = row.number("sim_mean_peers");
    pt.sim.mean_peers_sem = row.number("sim_mean_peers_sem");
    pt.sim.mean_peers_lo = row.number("sim_mean_peers_lo");
    pt.sim.mean_peers_hi = row.number("sim_mean_peers_hi");
    points.push_back(pt);
  }
  return points;
}

/// run_sweep_stream's cells for `grid` under `options`, read back from
/// the CSV report it writes.
inline std::vector<CellResult> sweep_cells(const SweepGrid& grid,
                                           const SweepOptions& options) {
  return decode_cells(read_report(sweep_report(grid, options)));
}

/// run_frontier_stream's points for `grid` under `options`, read back
/// from the CSV report it writes.
inline std::vector<FrontierPoint> frontier_points(
    const SweepGrid& grid, const SweepOptions& options,
    const RefineOptions& refine) {
  return decode_points(read_report(frontier_report(grid, options, refine)));
}

/// `grid` with every axis it lacks taken from default_region_grid(), as
/// the sweep documents: the grid whose cells a report's rows enumerate.
inline SweepGrid with_default_axes(const SweepGrid& grid) {
  SweepGrid effective = default_region_grid();
  for (const Axis& axis : grid.axes) effective.set_axis(axis);
  return effective;
}

/// Sets the CellParams field the axis `name` drives to `value` (k and
/// flash rounded to their integers).
inline void set_param(CellParams& p, const std::string& name, double value) {
  if (name == "lambda") p.lambda = value;
  if (name == "us") p.us = value;
  if (name == "mu") p.mu = value;
  if (name == "gamma") p.gamma = value;
  if (name == "k") p.k = static_cast<int>(std::lround(value));
  if (name == "eta") p.eta = value;
  if (name == "flash") p.flash = std::llround(value);
  if (name == "mix") p.mix = value;
  if (name == "hetero") p.hetero = value;
}

/// The value of the axis `name` in decoded cell parameters.
inline double param(const CellParams& p, const std::string& name) {
  if (name == "lambda") return p.lambda;
  if (name == "us") return p.us;
  if (name == "mu") return p.mu;
  if (name == "gamma") return p.gamma;
  if (name == "k") return p.k;
  if (name == "eta") return p.eta;
  if (name == "flash") return static_cast<double>(p.flash);
  if (name == "mix") return p.mix;
  EXPECT_EQ(name, "hetero");
  return p.hetero;
}

}  // namespace p2p::engine
