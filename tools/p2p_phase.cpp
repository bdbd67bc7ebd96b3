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
#include <array>
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
#include "verdict_json.hpp"

namespace {

using p2p::JsonWriter;
using p2p::per_verdict;
using p2p::analysis::PhaseFrontierPoint;
using p2p::analysis::PhaseGrid;
using p2p::analysis::VerdictAgreement;

std::string basename_of(const std::string& path) {
  if (path.empty() || path == "-") return "<stdin>";
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The per-verdict tally of `cells` (grid cells or boxes).
template <typename Cells>
std::array<std::size_t, 3> tally(const Cells& cells) {
  std::array<std::size_t, 3> counts{};
  for (const auto& cell : cells) counts[static_cast<int>(cell.verdict)] += 1;
  return counts;
}

/// The summary JSON: the machine-readable digest CI diffs against a
/// committed golden. Key order and number spellings are deterministic.
std::string summary_json(const std::string& source, const PhaseGrid& grid,
                         const std::vector<PhaseFrontierPoint>& frontier,
                         std::size_t bracketed,
                         const VerdictAgreement& agreement, double tol) {
  std::string out;
  JsonWriter json(out);
  json.begin_block_object().key("source").string(source);
  json.key("x_axis").string(grid.x_axis).key("y_axis").string(grid.y_axis);
  json.key("num_x").integer(grid.num_x()).key("num_y").integer(grid.num_y());
  json.key("cells").integer(grid.cells.size());
  json.key("scenario_types").begin_array();
  for (const auto& arrival : grid.scenario.mix) {
    json.string(p2p::engine::mix_column_name(arrival.type));
  }
  json.end_array();
  // Only non-baseline corpora carry the column, so baseline summary
  // bytes are untouched.
  if (!grid.policy.empty()) json.key("policy").string(grid.policy);
  per_verdict(json, "verdicts", tally(grid.cells));

  json.key("frontier").begin_object().key("tol").number(tol);
  json.key("bracketed_rows").integer(bracketed);
  json.key("points").begin_block_array();
  for (const PhaseFrontierPoint& pt : frontier) {
    json.begin_object().key("row").integer(pt.row).key("y").number(pt.y);
    json.key("bracketed").boolean(pt.bracketed);
    json.key("x_lo").number(pt.x_lo).key("x_hi").number(pt.x_hi);
    json.key("interpolated").number(pt.interpolated);
    json.key("value").number(pt.value).key("value_lo").number(pt.value_lo);
    json.key("value_hi").number(pt.value_hi).key("margin").number(pt.margin);
    json.end_object();
  }
  json.end_array().end_object();

  const VerdictAgreement& a = agreement;
  json.key("agreement").begin_object();
  json.key("cells_with_sim").integer(a.cells_with_sim);
  json.key("threshold").number(a.threshold);
  json.key("compared").integer(a.compared).key("agreeing").integer(a.agreeing);
  json.key("agreement").number(a.agreement);
  json.key("agreement_lo").number(a.agreement_lo);
  json.key("agreement_hi").number(a.agreement_hi);
  per_verdict(json, "confusion", a.counts).end_object();
  if (a.has_fluid) {
    // The three-way digest only exists for corpora with a fluid_verdict
    // column, so pre-fluid summaries keep their bytes.
    json.key("fluid").begin_object().key("compared").integer(a.fluid_compared);
    json.key("agreeing").integer(a.fluid_agreeing);
    per_verdict(json, "theory_vs_fluid", a.fluid_counts);
    per_verdict(json, "three_way", a.counts3).end_object();
  }
  json.end_object();
  return out;
}

/// The multi-resolution summary JSON: the adaptive archive's digest —
/// leaf counts, depths, finest resolution and the frontier-cover
/// accounting. Key order and number spellings are deterministic.
std::string box_summary_json(const std::string& source,
                             const p2p::analysis::BoxGrid& grid,
                             std::size_t cover) {
  double cover_measure = 0;
  for (const auto& b : grid.boxes) {
    if (!b.uniform) cover_measure += b.ext_x * b.ext_y;
  }
  const double window =
      (grid.x_max - grid.x_min) * (grid.y_max - grid.y_min);
  std::string out;
  JsonWriter json(out);
  json.begin_block_object().key("source").string(source);
  json.key("mode").string("adaptive");
  json.key("x_axis").string(grid.x_axis).key("y_axis").string(grid.y_axis);
  json.key("boxes").integer(grid.boxes.size());
  json.key("max_depth").integer(grid.max_depth);
  json.key("x_min").number(grid.x_min).key("x_max").number(grid.x_max);
  json.key("y_min").number(grid.y_min).key("y_max").number(grid.y_max);
  json.key("min_ext_x").number(grid.min_ext_x);
  json.key("min_ext_y").number(grid.min_ext_y);
  per_verdict(json, "verdicts", tally(grid.boxes));
  json.key("frontier_cover").begin_object().key("boxes").integer(cover);
  json.key("measure").number(cover_measure);
  json.key("window_fraction").number(cover_measure / window);
  json.end_object().end_object();
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
    std::size_t cover = 0;
    for (const auto& b : boxes.boxes) cover += b.uniform ? 0 : 1;
    const std::string summary = box_summary_json(basename_of(in), boxes, cover);
    if (!summary_out.empty()) {
      write_text(summary_out, summary);
    } else if (ppm_out.empty() && svg_out.empty()) {
      write_text("-", summary);
    }
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
  std::size_t bracketed = 0;
  for (const auto& pt : frontier) bracketed += pt.bracketed;
  const std::string summary = summary_json(basename_of(in), grid, frontier,
                                           bracketed, agreement, tol);
  if (!summary_out.empty()) {
    write_text(summary_out, summary);
  } else if (ppm_out.empty() && svg_out.empty() && frontier_out.empty()) {
    write_text("-", summary);
  }
  std::fprintf(stderr,
               "p2p_phase: %zu x %zu grid (%s vs %s), %zu/%zu rows "
               "bracketed, %zu sim cells, agreement %s\n",
               grid.num_x(), grid.num_y(), grid.x_axis.c_str(),
               grid.y_axis.c_str(), bracketed, grid.num_y(),
               agreement.cells_with_sim,
               format_number(agreement.agreement).c_str());
  return 0;
}
