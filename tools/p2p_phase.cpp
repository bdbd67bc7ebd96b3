// p2p_phase: phase diagrams from archived sweep corpora.
//
// Ingests a grid report (CSV or JSON, file or stdin), validates it
// against the schema the sweep engine emits, and derives the Theorem-1
// phase diagram from the bytes alone: per-row frontier localization
// (closed-form re-bisection of the verdict flip, cross-checkable
// against a --refine frontier run), a theory-vs-simulation verdict confusion
// matrix with a bootstrap CI, and dependency-free PPM/SVG renderings
// with the frontier overlaid.
//
//   # Render an archived mixed-arrival region and re-derive its
//   # frontier:
//   $ ./p2p_phase --in experiments/mix_example2_region.csv \
//       --ppm phase.ppm --svg phase.svg --summary summary.json \
//       --frontier frontier.csv
//
//   # Pipe a fresh sweep straight in:
//   $ ./p2p_sweep --grid "lambda=0.5:3.0:64;us=0.2:1.7:64" \
//       --theory-only | ./p2p_phase --in - --ppm region.ppm
//
//   # Theorem-14 policy comparison: render where a rarest-first sweep
//   # holds more (red) or fewer (blue) peers than its baseline:
//   $ ./p2p_phase --in experiments/policy_rarest_region.csv \
//       --diff experiments/policy_baseline_region.csv \
//       --diff-ppm diff.ppm --diff-svg diff.svg
//
// Everything derived here is a pure function of the input bytes and
// the flags: no wall clock, caller-seeded bootstrap, per-row
// parallelism that cannot reorder results — so diagrams and summary
// JSON are byte-identical for any --threads, and CI diffs them against
// committed goldens.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/heatmap.hpp"
#include "analysis/phase_diagram.hpp"
#include "engine/csv_reader.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "util/flags.hpp"
#include "util/number_format.hpp"

namespace {

using p2p::Stability;
using p2p::analysis::PhaseFrontierPoint;
using p2p::analysis::PhaseGrid;
using p2p::analysis::VerdictAgreement;
using p2p::format_number;

/// JSON rendering of one double: format_number's spelling, with the
/// non-finite values mapped to null like the report emitter does.
std::string json_num(double v) {
  const std::string s = format_number(v);
  return (s == "nan" || s == "inf" || s == "-inf") ? "null" : s;
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

/// Quoted JSON string — the source path is user input, and a '"' in a
/// filename must not corrupt the summary. One encoder for the whole
/// tree: the report emitter's.
std::string json_str(const std::string& s) {
  std::string out;
  p2p::engine::append_json_string(out, s);
  return out;
}

std::string basename_of(const std::string& path) {
  if (path.empty() || path == "-") return "<stdin>";
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}


/// The summary JSON: the machine-readable digest CI diffs against a
/// committed golden. Key order and number spellings are deterministic.
std::string summary_json(const std::string& source, const PhaseGrid& grid,
                         const std::vector<PhaseFrontierPoint>& frontier,
                         const VerdictAgreement& agreement, double tol) {
  std::size_t verdict_counts[3] = {};
  for (const auto& cell : grid.cells) {
    verdict_counts[static_cast<int>(cell.verdict)] += 1;
  }
  std::size_t bracketed = 0;
  for (const auto& pt : frontier) bracketed += pt.bracketed;

  std::string out = "{\n";
  out += "  \"source\": " + json_str(source) + ",\n";
  out += "  \"x_axis\": " + json_str(grid.x_axis) + ",\n";
  out += "  \"y_axis\": " + json_str(grid.y_axis) + ",\n";
  out += "  \"num_x\": " + std::to_string(grid.num_x()) + ",\n";
  out += "  \"num_y\": " + std::to_string(grid.num_y()) + ",\n";
  out += "  \"cells\": " + std::to_string(grid.cells.size()) + ",\n";
  out += "  \"scenario_types\": [";
  for (std::size_t i = 0; i < grid.scenario.mix.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + p2p::engine::mix_column_name(grid.scenario.mix[i].type) +
           "\"";
  }
  out += "],\n";
  if (!grid.policy.empty()) {
    // Only non-baseline corpora carry the column, so baseline summary
    // bytes are untouched.
    out += "  \"policy\": " + json_str(grid.policy) + ",\n";
  }
  out += "  \"verdicts\": {\"positive-recurrent\": " +
         std::to_string(verdict_counts[0]) +
         ", \"transient\": " + std::to_string(verdict_counts[1]) +
         ", \"borderline\": " + std::to_string(verdict_counts[2]) + "},\n";

  out += "  \"frontier\": {\"tol\": " + json_num(tol) +
         ", \"bracketed_rows\": " + std::to_string(bracketed) +
         ", \"points\": [\n";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const PhaseFrontierPoint& pt = frontier[i];
    out += "    {\"row\": " + std::to_string(pt.row) +
           ", \"y\": " + json_num(pt.y) +
           ", \"bracketed\": " + json_bool(pt.bracketed) +
           ", \"x_lo\": " + json_num(pt.x_lo) +
           ", \"x_hi\": " + json_num(pt.x_hi) +
           ", \"interpolated\": " + json_num(pt.interpolated) +
           ", \"value\": " + json_num(pt.value) +
           ", \"value_lo\": " + json_num(pt.value_lo) +
           ", \"value_hi\": " + json_num(pt.value_hi) +
           ", \"margin\": " + json_num(pt.margin) + "}";
    out += i + 1 < frontier.size() ? ",\n" : "\n";
  }
  out += "  ]},\n";

  out += "  \"agreement\": {\"cells_with_sim\": " +
         std::to_string(agreement.cells_with_sim) +
         ", \"threshold\": " + json_num(agreement.threshold) +
         ", \"compared\": " + std::to_string(agreement.compared) +
         ", \"agreeing\": " + std::to_string(agreement.agreeing) +
         ", \"agreement\": " + json_num(agreement.agreement) +
         ", \"agreement_lo\": " + json_num(agreement.agreement_lo) +
         ", \"agreement_hi\": " + json_num(agreement.agreement_hi) +
         ", \"confusion\": {";
  const char* verdict_names[3] = {"positive-recurrent", "transient",
                                  "borderline"};
  for (int v = 0; v < 3; ++v) {
    if (v > 0) out += ", ";
    out += std::string("\"") + verdict_names[v] + "\": [" +
           std::to_string(agreement.counts[v][0]) + ", " +
           std::to_string(agreement.counts[v][1]) + "]";
  }
  out += "}}";
  if (agreement.has_fluid) {
    // The three-way digest only exists for corpora with a fluid_verdict
    // column, so pre-fluid summaries keep their bytes.
    out += ",\n  \"fluid\": {\"compared\": " +
           std::to_string(agreement.fluid_compared) +
           ", \"agreeing\": " + std::to_string(agreement.fluid_agreeing) +
           ", \"theory_vs_fluid\": {";
    for (int t = 0; t < 3; ++t) {
      if (t > 0) out += ", ";
      out += std::string("\"") + verdict_names[t] + "\": [" +
             std::to_string(agreement.fluid_counts[t][0]) + ", " +
             std::to_string(agreement.fluid_counts[t][1]) + ", " +
             std::to_string(agreement.fluid_counts[t][2]) + "]";
    }
    out += "}, \"three_way\": {";
    for (int t = 0; t < 3; ++t) {
      if (t > 0) out += ", ";
      out += std::string("\"") + verdict_names[t] + "\": [";
      for (int f = 0; f < 3; ++f) {
        if (f > 0) out += ", ";
        out += "[" + std::to_string(agreement.counts3[t][f][0]) + ", " +
               std::to_string(agreement.counts3[t][f][1]) + "]";
      }
      out += "]";
    }
    out += "}}";
  }
  out += "\n}\n";
  return out;
}

/// The multi-resolution summary JSON: the adaptive archive's digest —
/// leaf counts, depths, finest resolution and the frontier-cover
/// accounting. Key order and number spellings are deterministic.
std::string box_summary_json(const std::string& source,
                             const p2p::analysis::BoxGrid& grid) {
  std::size_t verdict_counts[3] = {};
  std::size_t cover = 0;
  double cover_measure = 0;
  for (const auto& b : grid.boxes) {
    verdict_counts[static_cast<int>(b.verdict)] += 1;
    if (!b.uniform) {
      ++cover;
      cover_measure += b.ext_x * b.ext_y;
    }
  }
  const double window =
      (grid.x_max - grid.x_min) * (grid.y_max - grid.y_min);
  std::string out = "{\n";
  out += "  \"source\": " + json_str(source) + ",\n";
  out += "  \"mode\": \"adaptive\",\n";
  out += "  \"x_axis\": " + json_str(grid.x_axis) + ",\n";
  out += "  \"y_axis\": " + json_str(grid.y_axis) + ",\n";
  out += "  \"boxes\": " + std::to_string(grid.boxes.size()) + ",\n";
  out += "  \"max_depth\": " + std::to_string(grid.max_depth) + ",\n";
  out += "  \"x_min\": " + json_num(grid.x_min) + ",\n";
  out += "  \"x_max\": " + json_num(grid.x_max) + ",\n";
  out += "  \"y_min\": " + json_num(grid.y_min) + ",\n";
  out += "  \"y_max\": " + json_num(grid.y_max) + ",\n";
  out += "  \"min_ext_x\": " + json_num(grid.min_ext_x) + ",\n";
  out += "  \"min_ext_y\": " + json_num(grid.min_ext_y) + ",\n";
  out += "  \"verdicts\": {\"positive-recurrent\": " +
         std::to_string(verdict_counts[0]) +
         ", \"transient\": " + std::to_string(verdict_counts[1]) +
         ", \"borderline\": " + std::to_string(verdict_counts[2]) + "},\n";
  out += "  \"frontier_cover\": {\"boxes\": " + std::to_string(cover) +
         ", \"measure\": " + json_num(cover_measure) +
         ", \"window_fraction\": " + json_num(cover_measure / window) +
         "}\n";
  out += "}\n";
  return out;
}

/// Streams the extracted-frontier table (CSV) to `path`: one row per
/// grid row, both localizations side by side.
void write_frontier_table(const std::string& path, const PhaseGrid& grid,
                          const std::vector<PhaseFrontierPoint>& frontier) {
  using p2p::engine::ReportFormat;
  using p2p::engine::ReportWriter;
  using p2p::engine::RowRenderer;
  ReportWriter writer(path, ReportFormat::kCsv,
                      {"row", grid.y_axis, "bracketed", "x_lo", "x_hi",
                       "interpolated", "value", "value_lo", "value_hi",
                       "margin"});
  const RowRenderer renderer(writer.format(), writer.columns());
  std::string arena;
  for (const PhaseFrontierPoint& pt : frontier) {
    arena.clear();
    RowRenderer::Row row(renderer, arena);
    for (const double cell :
         {static_cast<double>(pt.row), pt.y, pt.bracketed ? 1.0 : 0.0,
          pt.x_lo, pt.x_hi, pt.interpolated, pt.value, pt.value_lo,
          pt.value_hi, pt.margin}) {
      row.number(cell);
    }
    row.end();
    writer.write_rendered(arena, 1);
  }
  writer.finish();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;
  using namespace p2p::engine;
  using namespace p2p::analysis;

  Flags flags(argc, argv);
  const std::string in = flags.get_string(
      "in", "-", "grid report to ingest: CSV or JSON, '-' = stdin");
  const std::string x_axis = flags.get_string(
      "x", "", "x (column) axis name; default: the faster varying axis");
  const std::string y_axis = flags.get_string(
      "y", "", "y (row) axis name; default: the slower varying axis");
  const double tol = flags.get_double(
      "tol", 1e-3, "frontier re-bisection stopping width");
  const int threads_flag = flags.get_int(
      "threads", 0,
      "worker threads for corpus decoding, the per-row re-bisection, "
      "PPM rendering and the theory/sim agreement scan (0 = all hardware "
      "cores); output is byte-identical for any value");
  const int cell_px =
      flags.get_int("cell-px", 12, "square pixels per grid cell");
  const bool no_overlay = flags.get_bool(
      "no-overlay", false, "skip the frontier overlay in renderings");
  const double sim_threshold = flags.get_double(
      "sim-threshold", std::nan(""),
      "occupancy splitting sim cells into transient-looking vs "
      "stable-looking (default: median simulated occupancy)");
  const double confidence = flags.get_double(
      "confidence", 0.95, "confidence level of the agreement bootstrap CI");
  const int resamples =
      flags.get_int("resamples", 256, "agreement bootstrap resamples");
  const int seed = flags.get_int("seed", 1, "agreement bootstrap seed");
  const std::string ppm_out = flags.get_string(
      "ppm", "", "write the phase diagram as binary PPM (P6) here");
  const std::string svg_out =
      flags.get_string("svg", "", "write the phase diagram as SVG here");
  const std::string frontier_out = flags.get_string(
      "frontier", "", "write the extracted frontier as CSV here");
  const std::string summary_out = flags.get_string(
      "summary", "",
      "write the summary JSON here ('-' = stdout; default stdout when no "
      "other output is requested)");
  const std::string diff_in = flags.get_string(
      "diff", "",
      "baseline grid report to diff --in against (same axes and values); "
      "renders the per-cell occupancy difference");
  const std::string diff_ppm_out = flags.get_string(
      "diff-ppm", "", "write the occupancy-difference diagram as PPM here");
  const std::string diff_svg_out = flags.get_string(
      "diff-svg", "", "write the occupancy-difference diagram as SVG here");
  flags.finish();

  if (!diff_in.empty() && diff_ppm_out.empty() && diff_svg_out.empty()) {
    std::fprintf(stderr,
                 "error: --diff needs --diff-ppm and/or --diff-svg to "
                 "render into\n");
    return 2;
  }
  if (diff_in.empty() && (!diff_ppm_out.empty() || !diff_svg_out.empty())) {
    std::fprintf(stderr,
                 "error: --diff-ppm/--diff-svg need --diff to name the "
                 "baseline report\n");
    return 2;
  }

  const int threads =
      p2p::engine::ThreadPool::all_cores_if_zero(threads_flag);
  if (threads_flag < 0) {
    std::fprintf(stderr, "error: --threads must be nonnegative\n");
    return 2;
  }

  // Adaptive (multi-resolution) reports route to the native box
  // renderers; the header's box block is the dispatch. Everything a
  // cartesian grid offers that a box archive cannot answers with a flag
  // error, not silence.
  const auto run_box_mode = [&](const BoxGrid& boxes) -> int {
    if (!frontier_out.empty() || !diff_in.empty()) {
      std::fprintf(stderr,
                   "error: --frontier/--diff apply to cartesian grid "
                   "reports; an adaptive report's frontier is its "
                   "non-uniform leaves\n");
      return 2;
    }
    if (!x_axis.empty() || !y_axis.empty()) {
      std::fprintf(stderr,
                   "error: --x/--y apply to cartesian grid reports; box "
                   "axes come from the box_ext_* columns\n");
      return 2;
    }
    RenderOptions render;
    render.cell_px = cell_px;
    render.overlay_frontier = !no_overlay;
    if (!ppm_out.empty()) {
      write_text(ppm_out, render_boxes_ppm(boxes, render));
    }
    if (!svg_out.empty()) {
      write_text(svg_out, render_boxes_svg(boxes, render));
    }
    const std::string summary = box_summary_json(basename_of(in), boxes);
    if (!summary_out.empty()) {
      write_text(summary_out, summary);
    } else if (ppm_out.empty() && svg_out.empty()) {
      write_text("-", summary);
    }
    std::size_t cover = 0;
    for (const auto& b : boxes.boxes) cover += b.uniform ? 0 : 1;
    std::fprintf(stderr,
                 "p2p_phase: %zu leaf boxes (%s vs %s), depth <= %d, %zu "
                 "frontier-cover, finest %s x %s\n",
                 boxes.boxes.size(), boxes.x_axis.c_str(),
                 boxes.y_axis.c_str(), boxes.max_depth, cover,
                 format_number(boxes.min_ext_x).c_str(),
                 format_number(boxes.min_ext_y).c_str());
    return 0;
  };

  // Every corpus — CSV or JSON, named file, FIFO or pipe — streams
  // through one CsvReader in O(cells) typed state, never holding the
  // document; the reader reads the dialect from its own first bytes.
  const PhaseGrid grid = [&]() -> PhaseGrid {
    CsvReader reader(in);
    if (validate_report_schema(reader.columns()).has_boxes) {
      std::exit(run_box_mode(build_box_grid(reader)));
    }
    return build_phase_grid(reader, x_axis, y_axis, threads);
  }();
  const std::vector<PhaseFrontierPoint> frontier =
      extract_frontier(grid, tol, threads);
  const VerdictAgreement agreement = verdict_agreement(
      grid, sim_threshold, confidence, resamples,
      static_cast<std::uint64_t>(seed), threads);

  RenderOptions render;
  render.cell_px = cell_px;
  render.overlay_frontier = !no_overlay;
  if (!ppm_out.empty()) {
    write_ppm(grid, frontier, render, ppm_out, threads);  // streams bands
  }
  if (!svg_out.empty()) {
    write_text(svg_out, render_svg(grid, frontier, render));
  }
  if (!frontier_out.empty()) {
    write_frontier_table(frontier_out, grid, frontier);
  }
  if (!diff_in.empty()) {
    // The diff reads --in as the variant and --diff as the baseline:
    // red cells mean the variant holds MORE peers than the baseline.
    CsvReader reader(diff_in);
    const PhaseGrid baseline =
        build_phase_grid(reader, x_axis, y_axis, threads);
    if (!diff_ppm_out.empty()) {
      write_text(diff_ppm_out, render_diff_ppm(baseline, grid, render));
    }
    if (!diff_svg_out.empty()) {
      write_text(diff_svg_out, render_diff_svg(baseline, grid, render));
    }
  }
  const std::string summary = summary_json(basename_of(in), grid, frontier,
                                           agreement, tol);
  if (!summary_out.empty()) {
    write_text(summary_out, summary);
  } else if (ppm_out.empty() && svg_out.empty() && frontier_out.empty()) {
    write_text("-", summary);
  }

  std::size_t bracketed = 0;
  for (const auto& pt : frontier) bracketed += pt.bracketed;
  std::fprintf(stderr,
               "p2p_phase: %zu x %zu grid (%s vs %s), %zu/%zu rows "
               "bracketed, %zu sim cells, agreement %s\n",
               grid.num_x(), grid.num_y(), grid.x_axis.c_str(),
               grid.y_axis.c_str(), bracketed, grid.num_y(),
               agreement.cells_with_sim,
               format_number(agreement.agreement).c_str());
  return 0;
}
