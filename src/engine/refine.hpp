// Adaptive multi-resolution refinement of the Theorem-1 phase boundary.
//
// A dense cartesian sweep spends nearly every cell far from the
// stability frontier. run_adaptive_stream inverts the budget: the
// caller's grid values become a coarse *vertex lattice* whose gaps are
// the depth-0 boxes (a quadtree in 2-D, sparse 2^d-ary boxes in
// higher-D), and only boxes whose corner/center verdicts disagree are
// subdivided — generation by generation. The thread pool plans a
// generation (a child inherits two of its corners from its parent, and
// the rest are deduplicated within the generation only), evaluates its
// new vertices, decides its boxes and renders its leaf rows, which the
// caller concatenates in order. Vertices are shared between neighboring
// boxes and across generations, so the evaluation count scales with the
// frontier's area, not the volume's.
//
// The report is the grid schema plus a trailing multi-resolution block:
//
//   ... sweep columns ... | box_depth | box_uniform | box_ext_<axis>...
//
// one row per *leaf box*, whose parameter columns hold the box's origin
// (lower corner) vertex and whose verdict/margin/sim columns are that
// vertex's evaluation. box_uniform records whether the leaf's corners
// agreed (1) or the depth/tolerance cap stopped a still-disagreeing box
// (0) — the frontier cover. Dense sweeps never carry the block, so every
// committed archive keeps its bytes.
//
// Active learning on the simulation side: when `sim_threshold` is set,
// vertices whose bootstrap CI (analysis/confidence.hpp via the shared
// aggregation path) straddles the threshold get their replica budget
// escalated in deterministic rounds — the replica money goes where the
// theory/sim decision is actually uncertain.
//
// Determinism contract (same as the dense pipeline): every vertex's
// replicas derive their RNG streams from (base_seed, vertex key,
// replica) alone, vertex keys and box orders are pure functions of the
// grid, so the emitted report is byte-identical for any --threads and
// any chunk size.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/report.hpp"
#include "engine/sweep.hpp"

namespace p2p::engine {

/// First trailing column of the multi-resolution block: the leaf box's
/// subdivision depth (0 = a coarse box of the caller's lattice).
inline constexpr const char* kBoxDepthColumn = "box_depth";

/// Second trailing column: 1 when the leaf's corner/center verdicts all
/// agree, 0 when the depth or tolerance cap stopped a still-disagreeing
/// box — the rows with 0 cover the phase boundary.
inline constexpr const char* kBoxUniformColumn = "box_uniform";

/// Prefix of the per-adaptive-axis physical box widths that close the
/// block ("box_ext_lambda", "box_ext_us", ...), in grid axis order.
inline constexpr const char* kBoxExtPrefix = "box_ext_";

struct AdaptiveOptions {
  /// Maximum subdivision depth: a depth-0 box may be halved per axis this
  /// many times, so the fine lattice is 2^max_depth times the coarse
  /// resolution. 0 degenerates to classifying the coarse boxes only.
  int max_depth = 4;
  /// Physical stopping width: a disagreeing box whose width is <= tol on
  /// every adaptive axis is emitted as a (non-uniform) leaf instead of
  /// subdivided further. 0 = subdivide disagreements all the way to
  /// max_depth.
  double tol = 0;
  /// When finite (and the sweep simulates with replicas >= 2): a vertex
  /// whose bootstrap CI on the mean occupancy straddles this threshold —
  /// the theory/sim decision boundary p2p_phase classifies against — has
  /// its replica budget escalated (another `replicas` runs per round,
  /// re-aggregated over all samples) until the CI clears the threshold
  /// or max_sim_rounds is reached. NaN = never escalate.
  double sim_threshold = std::nan("");
  /// Total replica rounds a straddling vertex may consume (>= 1).
  int max_sim_rounds = 4;
};

/// Parses "depth" or "depth:tol", e.g. "4:0.01". Depth is a nonnegative
/// integer (<= 20), tol a nonnegative finite number (default 0). Aborts
/// on malformed specs, echoing the offending spec verbatim.
AdaptiveOptions parse_adaptive(const std::string& spec);

/// The adaptive axes of `grid` after default-filling: every axis with
/// >= 2 values, in grid order. These are the box dimensions; each must
/// be refinable (refinable_axis) with strictly increasing finite values.
std::vector<std::string> adaptive_axes(const SweepGrid& grid);

/// The adaptive report's column names for (grid, options): the grid
/// schema (sweep_columns) plus box_depth, box_uniform and one
/// box_ext_<axis> per adaptive axis. A streaming ReportWriter for
/// run_adaptive_stream must be constructed with exactly these.
std::vector<std::string> adaptive_columns(const SweepGrid& grid,
                                          const SweepOptions& options);

/// What an adaptive run leaves behind (the leaf rows went to the
/// writer): the savings accounting the tool prints, and the verdict
/// tallies of the emitted leaves.
struct AdaptiveSummary {
  /// Leaf boxes emitted (= report rows).
  std::size_t boxes = 0;
  /// Distinct lattice vertices classified (the cost an equivalent dense
  /// sweep pays per vertex of the fine lattice).
  std::size_t evaluated = 0;
  /// Vertices that ran simulation replicas (evaluated, unless
  /// theory_only).
  std::size_t simulated = 0;
  /// Vertices whose bootstrap CI straddled sim_threshold and received
  /// escalated replica rounds.
  std::size_t escalated = 0;
  /// Deepest subdivision actually reached.
  int max_depth_reached = 0;
  /// Vertex count of the dense fine lattice at max_depth (product over
  /// adaptive axes of coarse_boxes * 2^max_depth + 1) — the cell count a
  /// dense sweep at matched resolution would evaluate.
  std::size_t dense_equivalent = 0;
  /// Leaf-box origin verdict tallies (like SweepSummary's).
  std::size_t stable = 0;
  std::size_t transient = 0;
  std::size_t borderline = 0;
};

/// Streams the adaptive refinement of `grid` under the sweep `options`
/// to `writer` (construct it with adaptive_columns(grid, options)).
/// Missing axes take default_region_grid values like run_sweep_stream;
/// at least two axes must vary, every varying axis must be refinable
/// with strictly increasing finite values, and the fine lattice must fit
/// a 64-bit vertex key. Rows are leaf boxes in deterministic order
/// (generation by generation, box order within a generation), each
/// generation's rows written once its boxes are decided. Byte-identical
/// for any (threads, chunk).
AdaptiveSummary run_adaptive_stream(const SweepGrid& grid,
                                    const SweepOptions& options,
                                    const AdaptiveOptions& adaptive,
                                    ReportWriter& writer);

}  // namespace p2p::engine
