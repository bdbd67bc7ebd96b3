// Shared cell-evaluation core of the sweep engine.
//
// Internal header: everything a sweep-shaped driver needs to turn one
// parameter point into a report row — deterministic per-work-item seed
// derivation, the per-replica simulation harness, replica aggregation,
// the closed-form/CTMC/fluid classification of a cell, the grid /
// option validators, and run_ordered_blocks, the one pipeline that hands
// evaluated units from the workers to the writer in order.
// `engine/sweep.cpp` (dense grids, per-row frontier refinement) and
// `engine/refine.cpp` (adaptive multi-resolution boxes) both evaluate
// through here, so a dense cell and an adaptive box corner at the same
// parameters can never disagree.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

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

/// Sets the one field of `p` that grid axis `axis` drives to the axis
/// value `v`, rounding k and flash to integers: the one axis-to-field
/// mapping, and how an odometer step updates only the axes whose digit
/// moved.
void set_cell_axis(CellParams& p, const AxisSlots& s, std::size_t axis,
                   double v);

/// The cell parameters at per-axis values `v` (aligned with the grid
/// `s` was resolved on), each set by set_cell_axis.
/// validate_effective_axes vets every grid value once up front.
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

/// Adds `verdict` to a summary's stable / transient / borderline tallies.
template <typename Tally>
void tally_verdict(Tally& tally, Stability verdict) {
  switch (verdict) {
    case Stability::kPositiveRecurrent:
      ++tally.stable;
      break;
    case Stability::kTransient:
      ++tally.transient;
      break;
    case Stability::kBorderline:
      ++tally.borderline;
      break;
  }
}

/// Alignment of run_ordered_blocks's ring slots. Neighbouring slots
/// belong to blocks that different workers fill at the same time, so a
/// slot sharing a cache line with its neighbour turns every write into
/// cross-core traffic (false sharing); 128 bytes also covers the
/// adjacent-line prefetcher.
inline constexpr std::size_t kSlotAlign = 128;

/// Sums per-block tallies.
inline SweepSummary& operator+=(SweepSummary& a, const SweepSummary& b) {
  a.cells += b.cells;
  a.stable += b.stable;
  a.transient += b.transient;
  a.borderline += b.borderline;
  return a;
}

/// The one ordered-evaluation core behind the grid sweep, the frontier
/// and the adaptive leaves. The job is `units` units of `per_unit` work
/// items (a unit's replicas; 1 for theory-only cells and leaves): item i
/// is replica i % per_unit of unit i / per_unit. The pool claims blocks
/// of `chunk` items (0 = auto), so a few units with many replicas still
/// spread over every thread. A block evaluates its items, renders each
/// unit it completes into its ring slot's arena, and tallies it. The
/// calling thread hands finished slots to `writer` in block order, which
/// is unit order, and returns the summed tallies.
///
/// A block's slot owns every unit whose first item lies in the block.
/// Only the last of them can run past the block's end; its head,
/// samples and `pending` countdown live in the owner slot. Each block
/// holding some of its items writes their samples there and subtracts
/// their count from `pending` (the owner only after publishing its own
/// output). The acq_rel decrement that reaches zero has seen every
/// other finisher's writes, so that block aggregates the unit and
/// appends it to the owner's output. Units inside one block never touch
/// the countdown: a per_unit == 1 job is purely block-batched.
///
/// Ring size and reuse safety. The pool claims at most W = 4 * threads
/// + 2 blocks past the consumed prefix c, and moves c only after the
/// consumer returns. The consumer emits a block once every unit it owns
/// is complete, so the oldest unemitted block owns the unit the prefix
/// stops inside: at most ceil((per_unit - 1) / chunk) blocks before c.
/// Live blocks thus span at most W + ceil((per_unit - 1) / chunk)
/// consecutive indices, and a ring of that many slots never gives one
/// slot to two live blocks. The consumer re-arms a slot for block
/// b + ring as it emits block b, before that block or any block holding
/// its last unit's replicas can be claimed.
///
/// The Source supplies the Unit and Tally types, `row_bytes` (an arena
/// reservation per unit) and walk(unit): a worker-local walker at
/// `unit` with head(Unit&) (the non-replica part, run once),
/// replica(r), finish(Unit&, samples, Tally&) (aggregate and tally),
/// render(const Unit&, arena) and next().
template <typename Source>
typename Source::Tally run_ordered_blocks(
    ThreadPool& pool, std::size_t units, std::size_t per_unit,
    std::size_t chunk, const Source& source, ReportWriter& writer) {
  using Unit = typename Source::Unit;
  using Tally = typename Source::Tally;
  struct Output {
    std::string arena;
    std::size_t rows = 0;
    Tally tally{};
  };
  struct alignas(kSlotAlign) Slot {
    Output out;
    Unit straddler;
    std::vector<ReplicaSample> samples;
    std::atomic<std::size_t> pending{0};
  };
  P2P_ASSERT_MSG(units <= SIZE_MAX / per_unit,
                 "work item count overflows size_t (" +
                     std::to_string(units) + " units x " +
                     std::to_string(per_unit) + " replicas)");
  Tally total{};
  const std::size_t n = units * per_unit;
  if (n == 0) return total;
  if (chunk == 0) chunk = ThreadPool::auto_chunk(n, pool.size());
  const std::size_t num_blocks = (n - 1) / chunk + 1;
  const std::size_t window = 4 * static_cast<std::size_t>(pool.size()) + 2;
  const std::size_t ring =
      std::min(num_blocks, window + (per_unit + chunk - 2) / chunk);
  // Block b owns units [first_unit(b), first_unit(b + 1)).
  const auto first_unit = [&](std::size_t b) {
    return b == num_blocks ? units : (b * chunk + per_unit - 1) / per_unit;
  };
  std::vector<Slot> slots(ring);
  const auto arm = [&](std::size_t b) {
    Slot& slot = slots[b % ring];
    const std::size_t last = first_unit(b + 1);
    if (last > first_unit(b) &&
        last * per_unit > b * chunk + std::min(chunk, n - b * chunk)) {
      slot.samples.resize(per_unit);
      slot.pending.store(per_unit, std::memory_order_relaxed);
    } else {
      slot.samples = {};
    }
  };
  for (std::size_t b = 0; b < ring; ++b) arm(b);
  const auto finish = [&](auto& walker, Unit& unit,
                          std::span<const ReplicaSample> samples,
                          Output& out) {
    walker.finish(unit, samples, out.tally);
    walker.render(unit, out.arena);
    ++out.rows;
  };

  std::size_t emitted = 0;  // blocks handed to the sink
  pool.parallel_for_streaming_blocks(
      n, chunk, window * chunk,
      [&](std::size_t begin, std::size_t end) {
        const std::size_t block = begin / chunk;
        Slot& own = slots[block % ring];
        const std::size_t owned = first_unit(block + 1) - first_unit(block);
        Output out;
        if (owned > 0) {
          // The block's writes stay off the slot; the arena keeps its
          // capacity across reuses.
          out.arena = std::move(own.out.arena);
          out.arena.clear();
          out.arena.reserve(owned * source.row_bytes);
        }
        std::vector<ReplicaSample> local(per_unit);
        Unit head;
        std::size_t unit = begin / per_unit;
        auto walker = source.walk(unit);
        std::size_t straddled = 0;  // items of the owned straddler run here
        for (std::size_t item = begin;;) {
          const std::size_t first = unit * per_unit;
          const std::size_t stop = std::min(end, first + per_unit);
          if (item == first && stop == first + per_unit) {
            walker.head(head);
            for (std::size_t r = 0; r < per_unit; ++r) {
              local[r] = walker.replica(r);
            }
            finish(walker, head, local, out);
          } else {
            Slot& owner = slots[first / chunk % ring];
            if (item == first) walker.head(owner.straddler);
            for (std::size_t it = item; it < stop; ++it) {
              owner.samples[it - first] = walker.replica(it - first);
            }
            const std::size_t done = stop - item;
            if (item == first) {
              straddled = done;
            } else if (owner.pending.fetch_sub(
                           done, std::memory_order_acq_rel) == done) {
              finish(walker, owner.straddler, owner.samples, owner.out);
            }
          }
          item = stop;
          if (item == end) break;
          ++unit;
          walker.next();
        }
        if (owned > 0) own.out = std::move(out);
        if (straddled > 0 && own.pending.fetch_sub(
                                 straddled, std::memory_order_acq_rel) ==
                                 straddled) {
          finish(walker, own.straddler, own.samples, own.out);
        }
      },
      [&](std::size_t prefix) {
        for (; emitted < num_blocks &&
               first_unit(emitted + 1) * per_unit <= prefix;
             ++emitted) {
          Output& out = slots[emitted % ring].out;
          if (first_unit(emitted + 1) > first_unit(emitted)) {
            total += out.tally;
            writer.write_rendered(out.arena, out.rows);
          }
          if (emitted + ring < num_blocks) arm(emitted + ring);
        }
      });
  return total;
}

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
/// formatted from c's own values. Only the adaptive generations whose
/// lattice values have no token table (engine/refine.cpp's formatted
/// fallback) take that route.
void render_grid_row(const GridRenderPlan& plan, const SweepOptions& options,
                     const std::vector<std::size_t>* digits,
                     const CellResult& c, RowRenderer::Row& row);

}  // namespace p2p::engine
