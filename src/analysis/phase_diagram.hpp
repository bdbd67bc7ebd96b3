// Phase-diagram analysis of ingested sweep corpora: the read-side
// counterpart of the sweep engine, turning an archived grid table
// (engine/csv_reader.hpp) back into physics.
//
//   * build_phase_grid — validates an ingested grid report, recovers
//     the two varying axes (x fastest unless told otherwise), checks
//     the rows form the full cartesian product, and reconstructs the
//     typed-arrival scenario from the per-type rate columns — so a CSV
//     on disk is enough to re-run the Theorem-1 closed form at any
//     parameter point the grid spans.
//
//   * extract_frontier — per grid row, localizes the Theorem-1 verdict
//     flip along x twice over: a margin zero-crossing interpolation
//     (data only: the margin is piecewise linear in every refinable
//     axis, so between coarse cells sharing a critical piece the
//     interpolant is exact), and a closed-form re-bisection of the
//     bracket via classify() on the reconstructed cells — the same
//     localization refine_frontier performs at sweep time, now
//     recoverable from the archive alone. The golden-corpus suite
//     pins archived frontier tables against this re-derivation.
//
//   * verdict_agreement — theory-vs-simulation confusion matrix over
//     the grid (sim cells classified by an occupancy threshold) with a
//     bootstrap CI on the agreement rate (analysis/confidence.hpp).
//
// Everything here is deterministic: no wall clock, no libm
// transcendentals, bootstrap RNG seeded by the caller — so rendered
// diagrams and summary JSON are byte-stable across runs, threads and
// platforms.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/confidence.hpp"
#include "core/stability.hpp"
#include "engine/page_allocator.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"

namespace p2p::engine {
class CsvReader;
}

namespace p2p::analysis {

/// One ingested grid cell: the parameter point and the classified /
/// simulated columns the corpus recorded for it.
struct PhaseCell {
  engine::CellParams params;
  Stability verdict = Stability::kBorderline;
  double margin = std::nan("");
  int replicas = 0;
  double sim_mean_peers = std::nan("");
  double ctmc_mean_peers = std::nan("");
  /// Fluid-limit verdict; meaningful only when PhaseGrid::has_fluid.
  Stability fluid = Stability::kBorderline;
};

static_assert(std::is_trivially_destructible_v<PhaseCell>,
              "PhaseCells may hold cells that were never constructed");

/// Page-mapped cell storage (engine/page_allocator.hpp). resize() and
/// the size-taking constructor leave the new cells UNCONSTRUCTED: the
/// code that grows the vector must std::construct_at every new cell
/// before anything reads it — the ingest constructs each on the worker
/// that decodes it. push_back, assign, copies and moves construct as
/// usual.
using PhaseCells = std::vector<PhaseCell, engine::PageAllocator<PhaseCell>>;

/// A rectangular phase-diagram view of an ingested grid report.
struct PhaseGrid {
  /// The two varying axes: x is the fast (column) axis, y the slow
  /// (row) axis. When only one axis varies, y is a constant axis and
  /// y_values has one element.
  std::string x_axis, y_axis;
  std::vector<double> x_values, y_values;  // in grid (emission) order
  /// Scenario reconstructed from the per-type rate columns; empty for
  /// homogeneous corpora (and for scenario corpora whose mix axis is 0
  /// everywhere — the weights are unrecoverable from an all-zero
  /// block, and unneeded: every such cell is the homogeneous cell).
  engine::ScenarioSpec scenario;
  /// Piece-selection policy token recorded by the corpus ("rarest-first",
  /// ...); empty for baseline corpora without a policy column. The
  /// column is sweep-constant, so one string covers the grid.
  std::string policy;
  /// True when the corpus carried a fluid_verdict column (every cell's
  /// `fluid` field is then meaningful).
  bool has_fluid = false;
  /// Row-major [y][x]. Page-mapped (engine/page_allocator.hpp), so a
  /// dropped grid hands its pages back instead of leaving a heap hole.
  PhaseCells cells;

  std::size_t num_x() const { return x_values.size(); }
  std::size_t num_y() const { return y_values.size(); }
  const PhaseCell& at(std::size_t yi, std::size_t xi) const {
    return cells[yi * x_values.size() + xi];
  }
};

/// Builds the grid view from an ingested grid table. Axes default to
/// the varying ones (1 or 2 of them; x = the faster in emission order);
/// naming x_axis/y_axis explicitly selects (and possibly transposes)
/// them. Aborts — naming the offending row or column — when the table
/// is not a grid report, a coordinate is malformed (non-finite lambda,
/// fractional k, unknown verdict, cell index out of row order, ...), a
/// third axis varies, rows do not tile the full |x| * |y| product
/// exactly once, or the per-type columns contradict the mix/lambda
/// axes.
PhaseGrid build_phase_grid(const engine::Table& table,
                           const std::string& x_axis = "",
                           const std::string& y_axis = "");

/// Streaming overload: pulls batches of whole records off a CsvReader
/// and decodes them on `threads` OS threads (0 = all hardware cores),
/// so a million-cell corpus ingests in O(cells) typed state without
/// ever holding the document (or an all-strings Table) in memory. Same
/// validation and result as the Table overload, for any thread count —
/// a malformed corpus aborts with its earliest bad row's message.
PhaseGrid build_phase_grid(engine::CsvReader& reader,
                           const std::string& x_axis = "",
                           const std::string& y_axis = "", int threads = 0);

/// One ingested leaf box of an adaptive multi-resolution report
/// (engine/refine.hpp): the origin (lower-corner) vertex's evaluation
/// plus the box geometry from the trailing block.
struct PhaseBox {
  engine::CellParams params;  // the origin vertex
  Stability verdict = Stability::kBorderline;
  double margin = std::nan("");
  int replicas = 0;
  double sim_mean_peers = std::nan("");
  /// Subdivision depth (0 = a coarse box of the emitting lattice).
  int depth = 0;
  /// True when the box's corner/center verdicts all agreed at sweep
  /// time; false leaves cover the phase boundary.
  bool uniform = true;
  /// Lower corner and physical widths along BoxGrid::x_axis / y_axis.
  double x0 = std::nan(""), y0 = std::nan("");
  double ext_x = std::nan(""), ext_y = std::nan("");
};

/// A 2-D multi-resolution view of an ingested adaptive report: leaf
/// boxes tiling the [x_min, x_max] x [y_min, y_max] window, in emission
/// order. The renderable field an adaptive archive reconstructs to.
struct BoxGrid {
  /// The two box axes: x is the later (faster) one in grid-schema
  /// order, matching the cartesian builder's default orientation.
  std::string x_axis, y_axis;
  double x_min = 0, x_max = 0, y_min = 0, y_max = 0;
  /// The finest leaf widths — the archive's effective resolution.
  double min_ext_x = 0, min_ext_y = 0;
  int max_depth = 0;
  std::vector<PhaseBox> boxes;

  /// The leaf containing (x, y): half-open [x0, x0 + ext) containment,
  /// closed on the window's max edges. Aborts unless exactly one leaf
  /// contains the point — overlapping or gappy tilings are corrupt.
  const PhaseBox& box_at(double x, double y) const;
  Stability verdict_at(double x, double y) const {
    return box_at(x, y).verdict;
  }
};

/// Builds the multi-resolution view from an ingested adaptive report
/// (header carries the box block). Aborts — naming the offending row or
/// column — when the report is not an adaptive grid report, the box
/// block does not name exactly two axes (higher-D adaptive volumes are
/// archives to slice, not diagrams), a geometry cell is malformed
/// (negative depth, non-positive extent, uniform outside {0, 1}), or
/// the leaves' total measure does not tile the bounding window.
BoxGrid build_box_grid(const engine::Table& table);

/// Streaming overload, like build_phase_grid's: O(boxes) typed state.
BoxGrid build_box_grid(engine::CsvReader& reader);

/// One extracted frontier point: the Theorem-1 verdict flip along x for
/// one grid row.
struct PhaseFrontierPoint {
  std::size_t row = 0;  // y index
  double y = std::nan("");
  /// False when the row's coarse cells never change verdict: every
  /// estimate below is NaN.
  bool bracketed = false;
  /// The x values of the adjacent coarse cells whose verdicts differ.
  double x_lo = std::nan(""), x_hi = std::nan("");
  /// Margin zero-crossing interpolated between the bracket cells; NaN
  /// when the recorded margins do not straddle zero.
  double interpolated = std::nan("");
  /// Closed-form re-bisection of the bracket down to `tol` (midpoint
  /// and final bracket), via classify() on the reconstructed cells —
  /// matches refine_frontier run on the same coarse grid. NaN when x
  /// is not a refinable axis (k, eta, flash, hetero never flip the
  /// closed form along themselves) or a bracket endpoint is inf.
  double value = std::nan("");
  double value_lo = std::nan(""), value_hi = std::nan("");
  /// classify() margin at `value` (~0 by construction).
  double margin = std::nan("");
};

/// Extracts the frontier from every grid row (scanning x in grid order
/// for the first adjacent verdict change, like refine_frontier's coarse
/// scan). `tol` is the re-bisection stopping width. Rows are
/// independent, so they fan across `threads` OS threads; each row's
/// point depends only on the row, so the result is identical for any
/// thread count.
std::vector<PhaseFrontierPoint> extract_frontier(const PhaseGrid& grid,
                                                 double tol = 1e-3,
                                                 int threads = 1);

/// Theory-vs-simulation verdict agreement over a grid's cells; when the
/// grid carries a fluid_verdict column, additionally the three-way
/// theory/fluid/sim confusion tensor and the closed-form theory-vs-fluid
/// matrix over every cell.
struct VerdictAgreement {
  /// Occupancy threshold that splits simulated cells into
  /// "transient-looking" (mean peers above) and "stable-looking".
  double threshold = std::nan("");
  /// counts[theory verdict][sim transient-looking ? 1 : 0] over cells
  /// with simulation data; verdict indexed 0 = positive-recurrent,
  /// 1 = transient, 2 = borderline.
  std::size_t counts[3][2] = {};
  /// Cells with simulation data (replicas > 0, finite mean).
  std::size_t cells_with_sim = 0;
  /// Non-borderline cells entering the agreement rate, and how many of
  /// them agree (theory transient <=> sim transient-looking).
  std::size_t compared = 0;
  std::size_t agreeing = 0;
  /// agreeing / compared with a percentile-bootstrap CI; NaN when no
  /// cell qualifies.
  double agreement = std::nan("");
  double agreement_lo = std::nan(""), agreement_hi = std::nan("");
  /// True when the ingested grid carried a fluid_verdict column; the
  /// fields below are only meaningful then.
  bool has_fluid = false;
  /// counts3[theory][fluid][sim busy ? 1 : 0] over cells with
  /// simulation data — the three-way confusion tensor (verdict indexing
  /// as in `counts`).
  std::size_t counts3[3][3][2] = {};
  /// fluid_counts[theory][fluid] over EVERY grid cell: both verdicts
  /// are closed-form, so no simulation gate applies.
  std::size_t fluid_counts[3][3] = {};
  /// Cells where both closed-form verdicts are non-borderline, and how
  /// many of those agree.
  std::size_t fluid_compared = 0;
  std::size_t fluid_agreeing = 0;
};

/// Classifies every simulated cell against `threshold` (NaN = use the
/// median simulated occupancy, a scale-free default that splits any
/// two-phase grid) and bootstraps a CI on the agreement rate. `seed`
/// drives only the bootstrap, so the result is deterministic.
VerdictAgreement verdict_agreement(const PhaseGrid& grid,
                                   double threshold = std::nan(""),
                                   double confidence = 0.95,
                                   int resamples = 256,
                                   std::uint64_t seed = 1);

}  // namespace p2p::analysis
