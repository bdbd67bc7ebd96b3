// Shared cell-evaluation core of the sweep engine.
//
// Internal header: everything a sweep-shaped driver needs to turn one
// parameter point into a report row — deterministic per-work-item seed
// derivation, the per-replica simulation harness, replica aggregation,
// the closed-form/CTMC/fluid classification of a cell, and the grid /
// option validators. `engine/sweep.cpp` (dense grids, per-row frontier
// refinement) and `engine/refine.cpp` (adaptive multi-resolution boxes)
// both evaluate through here, so a dense cell and an adaptive box corner
// at the same parameters can never disagree.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "rand/rng.hpp"

namespace p2p::engine {

/// Independent named streams off one base seed, so replica sims, the
/// aggregation bootstrap, frontier sims and adaptive vertex sims can
/// never collide. The numeric values are part of the archive contract:
/// every committed corpus was generated with these assignments, so new
/// streams may only be appended, never renumbered.
enum Stream : std::uint64_t {
  kStreamCellSim = 0,
  kStreamCellAgg = 1,
  kStreamFrontierSim = 2,
  kStreamFrontierAgg = 3,
  kStreamAdaptiveSim = 4,
  kStreamAdaptiveAgg = 5,
};

/// Seeds work item (stream, a, b) independently of execution order:
/// chained splitmix64, the same derivation Rng::split uses. Every
/// replica's stream depends only on (base_seed, cell/row, replica), never
/// on which thread ran it — the determinism contract.
std::uint64_t derive_seed(std::uint64_t base_seed, Stream stream,
                          std::uint64_t a, std::uint64_t b);

/// Positions of the nine model axes in the effective grid's axis list,
/// resolved once per sweep so the per-cell hot loop indexes by slot
/// instead of comparing axis names nine times per cell.
struct AxisSlots {
  std::size_t lambda = 0, us = 0, mu = 0, gamma = 0, k = 0, eta = 0,
              flash = 0, mix = 0, hetero = 0;
};

AxisSlots resolve_axis_slots(const SweepGrid& grid);

/// extract_params without the name lookups and integrality asserts —
/// validate_effective_axes already vetted every grid value once up
/// front, so the per-cell path only rounds.
CellParams cell_params(const AxisSlots& s, const std::vector<double>& v,
                       PolicyKind policy);

/// One replica's simulation summary (pre-aggregation).
struct ReplicaSample {
  double final_peers = 0;
  double mean_peers = 0;
  double mean_sojourn = 0;
};

ReplicaSample simulate_replica(const CellParams& p,
                               const SweepOptions& options,
                               std::uint64_t seed);

/// Collapses R replica samples into mean / SEM / bootstrap-CI. Runs
/// serially in index order after the pool joins; `rng` drives only the
/// bootstrap and is derived per cell, so the result is deterministic.
SimAggregate aggregate_samples(std::span<const ReplicaSample> samples,
                               const SweepOptions& options, Rng& rng);

void validate_caller_axes(const SweepGrid& grid);

void validate_effective_axes(const SweepGrid& effective,
                             const SweepOptions& options);

void validate_options(const SweepOptions& options);

/// Axes the caller did not specify take the default region grid's —
/// the single source of fallback values, so a partial grid cannot
/// silently simulate at undocumented parameters.
SweepGrid effective_grid(const SweepGrid& grid);

/// Fills the non-sim fields of one cell — everything the cell's first
/// work item computes besides its own simulation. Resets the struct
/// first: the streaming pipeline recycles ring slots, and a stale CTMC
/// value from a previous occupant must not survive a skipped solve.
/// `arrival_scratch` is the caller's reused arrival buffer: the theory
/// classification runs on a SwarmParamsView borrowing it, so the
/// closed-form path never allocates per cell.
void fill_cell(CellResult& r, std::size_t cell, const CellParams& p,
               const SweepOptions& options,
               std::vector<ArrivalSpec>& arrival_scratch);

/// Alignment of every ring slot the ordered pipelines hand between
/// workers and the consumer. Adjacent slots belong to chunks that
/// different workers fill at the same time, so a slot sharing a cache
/// line with its neighbour turns every write into cross-core traffic
/// (false sharing); 128 bytes also covers the adjacent-line prefetcher.
inline constexpr std::size_t kSlotAlign = 128;

/// Everything a worker needs to render one grid-schema row without
/// touching shared mutable state: the columns' RowRenderer and the full
/// bytes (column prefixes included) of every cell that takes few
/// values. Cached column positions count from the front of
/// sweep_columns(options), so the renderer's columns may run past the
/// grid schema (the adaptive table's box_* block).
struct GridRenderPlan {
  /// Size of render_grid_row's stack buffer; make_grid_render_plan
  /// asserts that max_row_bytes fits.
  static constexpr std::size_t kRowBufferBytes = 4096;

  explicit GridRenderPlan(RowRenderer r) : renderer(std::move(r)) {}

  RowRenderer renderer;
  /// axis_tokens[axis][digit] = the full cell of that grid value. k and
  /// flash are rounded to their integer first: CellResult carries the
  /// *rounded* k / flash, and a raw axis value may sit anywhere within
  /// the 1e-9 integrality slack.
  std::vector<std::vector<std::string>> axis_tokens;
  /// The nine axis columns in render order, with maximal runs of
  /// single-valued axes collapsed into one pre-rendered byte span
  /// (cells > 0): a typical phase diagram varies two axes and pins
  /// seven, so most of the row head is one copy.
  struct RenderSegment {
    std::size_t axis = 0;   // grid slot of the varying axis (cells == 0)
    std::size_t field = 0;  // its render-order position, 0 = lambda
    std::size_t cells = 0;
    std::string bytes;
  };
  std::vector<RenderSegment> segments;
  /// The verdict cell followed by the margin column's prefix, indexed by
  /// the Stability enum value: the margin's digits follow it directly.
  std::string verdict_tokens[3];
  /// The critical_piece cell, indexed by critical_piece + 1 (so -1, the
  /// gamma <= mu branch, is slot 0), followed by the const_tail_cells
  /// sim cells every row shares.
  std::vector<std::string> critical_tokens;
  /// Sim cells merged into every critical token: a theory-only sweep's
  /// replicas = 0 and six NaNs (7), plus the NaN ctmc_mean_peers when
  /// the CTMC column is disabled (8); 0 when the sweep simulates.
  std::size_t const_tail_cells = 0;
  /// Full trailing sim_backend cells (absent under theory_only), indexed
  /// by the resolved backend (perpeer, typecount).
  std::string backend_tokens[2];
  /// Full policy cell (present only when simulating off the RandomUseful
  /// baseline): the policy is sweep-constant, so one cached cell serves
  /// every row.
  std::string policy_token;
  /// Full trailing fluid_verdict cells (present only under
  /// SweepOptions::fluid), indexed by the Stability enum value.
  std::string fluid_tokens[3];
  /// Upper bound on one rendered grid-schema row: the longest cached
  /// piece of every position, kMaxNumberChars per formatted number, and
  /// the JSON row separator. Arenas reserve chunk * max_row_bytes once.
  std::size_t max_row_bytes = 0;
};

/// Builds the plan for rows of `effective` (a defaults-filled grid)
/// rendered into `writer`, whose columns start with
/// sweep_columns(options).
GridRenderPlan make_grid_render_plan(const SweepGrid& effective,
                                     const SweepOptions& options,
                                     const ReportWriter& writer);

/// Renders the grid-schema cells of `c` into `row` and leaves it open,
/// so a caller with trailing columns appends them before row.end(). The
/// row is assembled in a stack buffer from the plan's cached pieces and
/// the directly formatted numbers, then lands in the arena with one
/// Row::cells_verbatim. With `digits` (the cell's per-axis value
/// indices) the varying axis cells are cached tokens; without, they are
/// formatted from c's own values — the route for cells that lie off the
/// grid's digits (adaptive leaves) or were retained without them
/// (run_sweep).
void render_grid_row(const GridRenderPlan& plan, const SweepOptions& options,
                     const std::vector<std::size_t>* digits,
                     const CellResult& c, RowRenderer::Row& row);

}  // namespace p2p::engine
