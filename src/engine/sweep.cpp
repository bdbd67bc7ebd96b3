#include "engine/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>

#include "core/model.hpp"
#include "engine/cell_eval.hpp"
#include "engine/parse_util.hpp"
#include "engine/thread_pool.hpp"
#include "rand/rng.hpp"
#include "sim/swarm.hpp"
#include "util/assert.hpp"

namespace p2p::engine {

namespace {

/// Axes the frontier refiner may bisect: the continuous parameters that
/// enter the Theorem-1 closed form. mix qualifies — the verdict depends
/// on the arrival composition — but eta, hetero and flash do not (Section
/// VIII-C's point is that retries leave the stability region unchanged,
/// the theory is homogeneous in upload rate, and flash only moves the
/// initial state), and k is integral.
constexpr const char* kRefinableAxes[] = {"lambda", "us", "mu", "gamma",
                                          "mix"};

/// Parses one axis/tolerance value; `spec` is the enclosing CLI spec,
/// echoed verbatim on failure so the user sees which argument is bad.
double parse_value(const std::string& token, const std::string& spec) {
  return parse_number(token, spec, /*allow_inf=*/true,
                      "axis values must be numbers (or 'inf')");
}

double axis_value(const std::vector<Axis>& axes,
                  const std::vector<double>& values,
                  const std::string& name) {
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (axes[i].name == name) return values[i];
  }
  P2P_ASSERT_MSG(false, "sweep cell queried for an axis the grid lacks");
  return 0;
}

CellParams extract_params(const std::vector<Axis>& axes,
                          const std::vector<double>& values) {
  CellParams p;
  p.lambda = axis_value(axes, values, "lambda");
  p.us = axis_value(axes, values, "us");
  p.mu = axis_value(axes, values, "mu");
  p.gamma = axis_value(axes, values, "gamma");
  p.eta = axis_value(axes, values, "eta");
  p.mix = axis_value(axes, values, "mix");
  p.hetero = axis_value(axes, values, "hetero");
  const double k_raw = axis_value(axes, values, "k");
  p.k = static_cast<int>(std::lround(k_raw));
  P2P_ASSERT_MSG(p.k >= 1 && std::abs(k_raw - p.k) < 1e-9,
                 "axis k must take positive integer values");
  const double flash_raw = axis_value(axes, values, "flash");
  p.flash = std::llround(flash_raw);
  P2P_ASSERT_MSG(p.flash >= 0 &&
                     std::abs(flash_raw - static_cast<double>(p.flash)) < 1e-9,
                 "axis flash must take nonnegative integer values");
  return p;
}

/// Odometer over the grid's cell enumeration (last axis fastest): a
/// worker walking a contiguous block of cells pays one div/mod chain at
/// seek() and a carry-propagating increment per step after that, with
/// the per-axis digit and value exposed directly — no per-cell vector
/// allocation like SweepGrid::cell_values.
class CellCursor {
 public:
  explicit CellCursor(const SweepGrid& grid)
      : grid_(&grid),
        digits_(grid.axes.size(), 0),
        values_(grid.axes.size(), 0) {}

  void seek(std::size_t cell) {
    std::size_t rem = cell;
    for (std::size_t i = digits_.size(); i-- > 0;) {
      const auto& vals = grid_->axes[i].values;
      digits_[i] = rem % vals.size();
      values_[i] = vals[digits_[i]];
      rem /= vals.size();
    }
  }

  void advance() {
    for (std::size_t i = digits_.size(); i-- > 0;) {
      const auto& vals = grid_->axes[i].values;
      if (++digits_[i] < vals.size()) {
        values_[i] = vals[digits_[i]];
        return;
      }
      digits_[i] = 0;
      values_[i] = vals[0];
    }
  }

  /// Per-axis value indices of the current cell, aligned with the axes.
  const std::vector<std::size_t>& digits() const { return digits_; }
  /// Per-axis values of the current cell, aligned with the axes.
  const std::vector<double>& values() const { return values_; }

 private:
  const SweepGrid* grid_;
  std::vector<std::size_t> digits_;
  std::vector<double> values_;
};

/// backend_tokens index of a resolved backend.
std::size_t backend_token_slot(SimBackend resolved) {
  return resolved == SimBackend::kTypeCount ? 1 : 0;
}

}  // namespace

GridRenderPlan make_grid_render_plan(const SweepGrid& effective,
                                     const SweepOptions& options,
                                     const ReportWriter& writer) {
  const AxisSlots slots = resolve_axis_slots(effective);
  GridRenderPlan plan(RowRenderer(writer.format(), writer.columns()));
  const RowRenderer& renderer = plan.renderer;
  // Every cached piece is rendered through the real Row path at its
  // real column position, so its bytes can never drift from what
  // text() / number() would emit there. Positions count from the front
  // of the grid schema, whatever columns the writer carries after it.
  const std::size_t num_columns = renderer.num_columns();
  const std::vector<std::string> grid_columns = sweep_columns(options);
  const auto position = [&](std::string_view name) {
    return static_cast<std::size_t>(
        std::find(grid_columns.begin(), grid_columns.end(), name) -
        grid_columns.begin());
  };
  const auto cache_cells = [&](std::size_t column, std::size_t count,
                               const auto& emit) {
    std::string bytes;
    RowRenderer::Row row(renderer, bytes);
    row.cells_verbatim({}, column);  // skip to `column`, emitting nothing
    emit(row);
    std::string cells = bytes;
    // end() checks that emit() rendered exactly `count` cells.
    row.cells_verbatim({}, num_columns - column - count);
    row.end();
    return cells;
  };
  // The nine axis columns (1..9, after the index) in render order.
  const std::size_t order[9] = {slots.lambda, slots.us,  slots.mu,
                                slots.gamma,  slots.k,   slots.eta,
                                slots.flash,  slots.mix, slots.hetero};
  double axis_values[9] = {};  // each single-valued axis's cell value
  plan.axis_tokens.resize(effective.axes.size());
  int max_k = 1;
  for (std::size_t j = 0; j < 9; ++j) {
    const std::size_t i = order[j];
    plan.axis_tokens[i].reserve(effective.axes[i].values.size());
    for (const double v : effective.axes[i].values) {
      double cell_value = v;
      if (i == slots.k) {
        cell_value = static_cast<double>(std::lround(v));
        max_k = std::max(max_k, static_cast<int>(std::lround(v)));
      }
      if (i == slots.flash) {
        cell_value = static_cast<double>(std::llround(v));
      }
      axis_values[j] = cell_value;
      plan.axis_tokens[i].push_back(cache_cells(
          1 + j, 1, [&](RowRenderer::Row& row) { row.number(cell_value); }));
    }
  }
  // Collapse maximal runs of single-valued axis columns into one
  // pre-rendered span each; varying axes stay per-cell.
  for (std::size_t j = 0; j < 9;) {
    if (effective.axes[order[j]].values.size() != 1) {
      plan.segments.push_back({order[j], j, 0, {}});
      ++j;
      continue;
    }
    std::size_t len = 1;
    while (j + len < 9 && effective.axes[order[j + len]].values.size() == 1) {
      ++len;
    }
    std::string bytes =
        cache_cells(1 + j, len, [&](RowRenderer::Row& row) {
          for (std::size_t t = 0; t < len; ++t) {
            row.number(axis_values[j + t]);
          }
        });
    plan.segments.push_back({0, j, len, std::move(bytes)});
    j += len;
  }
  constexpr Stability kVerdicts[] = {Stability::kPositiveRecurrent,
                                     Stability::kTransient,
                                     Stability::kBorderline};
  const std::size_t margin_column = position("margin");
  for (const Stability v : kVerdicts) {
    plan.verdict_tokens[static_cast<int>(v)] =
        cache_cells(position("verdict"), 1,
                    [&](RowRenderer::Row& row) { row.text(to_string(v)); }) +
        renderer.prefix(margin_column);
  }
  // A theory-only sweep's sim cells are constant: replicas = 0 and six
  // NaNs, plus ctmc_mean_peers unless the CTMC column is enabled.
  const std::size_t replicas_column = position("replicas");
  if (options.theory_only) {
    plan.const_tail_cells = options.ctmc_max_peers > 0 ? 7 : 8;
  }
  const std::string const_tail = cache_cells(
      replicas_column, plan.const_tail_cells, [&](RowRenderer::Row& row) {
        for (std::size_t c = 0; c < plan.const_tail_cells; ++c) {
          row.number(c == 0 ? 0 : std::nan(""));
        }
      });
  for (int piece = -1; piece < max_k; ++piece) {
    plan.critical_tokens.push_back(
        cache_cells(position("critical_piece"), 1,
                    [&](RowRenderer::Row& row) { row.number(piece); }) +
        const_tail);
  }
  if (!options.theory_only) {
    for (const SimBackend b : {SimBackend::kPerPeer, SimBackend::kTypeCount}) {
      plan.backend_tokens[backend_token_slot(b)] =
          cache_cells(position(kSimBackendColumn), 1,
                      [&](RowRenderer::Row& row) { row.text(to_string(b)); });
    }
    if (options.scenario.policy != PolicyKind::kRandomUseful) {
      plan.policy_token =
          cache_cells(position(kPolicyColumn), 1, [&](RowRenderer::Row& row) {
            row.text(to_string(options.scenario.policy));
          });
    }
  }
  if (options.fluid) {
    for (const Stability v : kVerdicts) {
      plan.fluid_tokens[static_cast<int>(v)] =
          cache_cells(position(kFluidVerdictColumn), 1,
                      [&](RowRenderer::Row& row) { row.text(to_string(v)); });
    }
  }

  // The row bound: every cached piece at its longest, and every
  // formatted number (the index included) at kMaxNumberChars behind its
  // prefix.
  const auto longest = [](const auto& tokens) {
    std::size_t n = 0;
    for (const std::string& t : tokens) n = std::max(n, t.size());
    return n;
  };
  const auto numbers = [&](std::size_t column, std::size_t count) {
    std::size_t n = 0;
    for (std::size_t c = column; c < column + count; ++c) {
      n += renderer.prefix(c).size() + kMaxNumberChars;
    }
    return n;
  };
  std::size_t bound = numbers(0, 1);
  for (const GridRenderPlan::RenderSegment& seg : plan.segments) {
    bound += seg.cells > 0 ? seg.bytes.size()
                           : std::max(longest(plan.axis_tokens[seg.axis]),
                                      numbers(1 + seg.field, 1));
  }
  bound += numbers(1 + 9, position("verdict") - (1 + 9));  // lambda_* cells
  bound += longest(plan.verdict_tokens) + kMaxNumberChars +
           longest(plan.critical_tokens);
  bound += numbers(replicas_column + plan.const_tail_cells,
                   8 - plan.const_tail_cells);
  bound += longest(plan.backend_tokens) + plan.policy_token.size() +
           longest(plan.fluid_tokens);
  plan.max_row_bytes = bound + 3;  // the JSON "},\n" separator (CSV: '\n')
  P2P_ASSERT_MSG(plan.max_row_bytes <= GridRenderPlan::kRowBufferBytes,
                 "a grid row of up to " + std::to_string(plan.max_row_bytes) +
                     " bytes exceeds the row buffer");
  return plan;
}

namespace {

/// One grid row's cells assembled in a caller-supplied buffer: cached
/// pieces are copied, numbers formatted in place behind their column's
/// prefix. The column count is tracked so the bytes enter the arena
/// through one arity-checked Row::cells_verbatim.
class RowAssembler {
 public:
  RowAssembler(const RowRenderer& renderer, char* buffer)
      : renderer_(renderer),
        json_(renderer.format() == ReportFormat::kJson),
        begin_(buffer),
        end_(buffer) {}

  /// `count` cached cells, prefixes included.
  void cells(std::string_view bytes, std::size_t count) {
    end_ = std::copy(bytes.begin(), bytes.end(), end_);
    cells_ += count;
  }
  /// A number cell behind its column's prefix.
  void number(double value) {
    const std::string& prefix = renderer_.prefix(cells_);
    end_ = std::copy(prefix.begin(), prefix.end(), end_);
    value_only(value);
  }
  /// A number cell whose prefix the preceding cached piece carried.
  void value_only(double value) {
    end_ = json_ && !std::isfinite(value) ? std::copy_n("null", 4, end_)
                                          : format_number_to(end_, value);
    ++cells_;
  }
  /// The cell index. An integer below 2^53 that is not a multiple of 10
  /// is its own format_number output: such integers are exact and >= 1
  /// apart, so no shorter decimal round-trips, and scientific needs
  /// every significant digit plus "e+NN". A trailing zero can flip that
  /// (format_number(1e5) is "1e+05"), so multiples of 10 take the
  /// double path.
  void index(std::uint64_t index) {
    if (index < (std::uint64_t{1} << 53) && (index == 0 || index % 10 != 0)) {
      const std::string& prefix = renderer_.prefix(cells_);
      end_ = std::copy(prefix.begin(), prefix.end(), end_);
      end_ = std::to_chars(end_, end_ + kMaxNumberChars, index).ptr;
      ++cells_;
    } else {
      number(static_cast<double>(index));
    }
  }

  std::string_view bytes() const {
    return {begin_, static_cast<std::size_t>(end_ - begin_)};
  }
  std::size_t num_cells() const { return cells_; }

 private:
  const RowRenderer& renderer_;
  bool json_;
  char* begin_;
  char* end_;
  std::size_t cells_ = 0;
};

}  // namespace

void render_grid_row(const GridRenderPlan& plan, const SweepOptions& options,
                     const std::vector<std::size_t>* digits,
                     const CellResult& c, RowRenderer::Row& row) {
  char buffer[GridRenderPlan::kRowBufferBytes];
  RowAssembler out(plan.renderer, buffer);
  out.index(c.index);
  // The nine axis cells (lambda, us, mu, gamma, k, eta, flash, mix,
  // hetero, in that order) — pinned axes come pre-merged into verbatim
  // spans by make_grid_render_plan.
  for (const GridRenderPlan::RenderSegment& seg : plan.segments) {
    if (seg.cells > 0) {
      out.cells(seg.bytes, seg.cells);
    } else if (digits != nullptr) {
      out.cells(plan.axis_tokens[seg.axis][(*digits)[seg.axis]], 1);
    } else {
      const double fields[9] = {c.lambda, c.us,  c.mu,
                                c.gamma,  static_cast<double>(c.k),
                                c.eta,    static_cast<double>(c.flash),
                                c.mix,    c.hetero};
      out.number(fields[seg.field]);
    }
  }
  if (!options.scenario.empty()) {
    out.number((1.0 - c.mix) * c.lambda);
    for (const auto& a : options.scenario.mix) {
      out.number(c.mix * c.lambda * a.rate);
    }
  }
  out.cells(plan.verdict_tokens[static_cast<int>(c.theory.verdict)], 1);
  out.value_only(c.theory.margin);
  out.cells(plan.critical_tokens[static_cast<std::size_t>(
                c.theory.critical_piece + 1)],
            1 + plan.const_tail_cells);
  if (plan.const_tail_cells == 0) {
    out.number(c.sim.replicas);
    out.number(c.sim.final_peers_mean);
    out.number(c.sim.mean_peers_mean);
    out.number(c.sim.mean_sojourn);
    out.number(c.sim.mean_peers_sem);
    out.number(c.sim.mean_peers_lo);
    out.number(c.sim.mean_peers_hi);
  }
  if (plan.const_tail_cells < 8) out.number(c.ctmc_mean_peers);
  if (!options.theory_only) {
    out.cells(plan.backend_tokens[backend_token_slot(c.backend)], 1);
  }
  if (!plan.policy_token.empty()) out.cells(plan.policy_token, 1);
  if (options.fluid) {
    out.cells(plan.fluid_tokens[static_cast<int>(c.fluid)], 1);
  }
  P2P_ASSERT(out.bytes().size() <= plan.max_row_bytes);
  row.cells_verbatim(out.bytes(), out.num_cells());
}

namespace {

/// Chunk, claim-window and ring sizing shared by the grid and frontier
/// streaming pipelines.
struct RingPlan {
  /// Work items claimed per pool mutex acquisition.
  std::size_t chunk = 1;
  /// Claims may run this many items past the emitted prefix: enough
  /// slack that one slow chunk does not stall the claimers, while
  /// keeping live results O(chunk * threads) rather than O(num_items).
  std::size_t window = 0;
  /// Replica-sample ring length. The live span of unaggregated samples
  /// is the claim window PLUS up to replicas-1 items of the block the
  /// consumed prefix stopped inside (blocks are only aggregated whole),
  /// rounded up to a whole number of replica blocks so each block's
  /// samples stay contiguous modulo the ring, and capped at the job
  /// itself. Ring reuse is safe because the pool opens the claim window
  /// only after the consumer has taken the prefix: a writer's slot can
  /// then only collide with an item of a fully aggregated block.
  /// (Sizing to the bare window was a real bug: with
  /// chunk % replicas != 0 a mid-block prefix let a claimable tail item
  /// overwrite the straddling block's samples.)
  std::size_t ring_items = 0;
  /// Per-cell / per-row result ring length.
  std::size_t block_ring = 1;
};

RingPlan plan_rings(std::size_t num_items, std::size_t replicas,
                    const SweepOptions& options) {
  RingPlan plan;
  plan.chunk = options.chunk != 0
                   ? options.chunk
                   : ThreadPool::auto_chunk(num_items, options.threads);
  const std::size_t window_chunks =
      4 * static_cast<std::size_t>(options.threads) + 2;
  plan.window = window_chunks * plan.chunk;
  std::size_t ring_items = plan.window + (replicas - 1);
  ring_items = ((ring_items + replicas - 1) / replicas) * replicas;
  plan.ring_items = std::min(ring_items, num_items);
  plan.block_ring = plan.ring_items / replicas + 1;
  return plan;
}

/// One ring slot of in-flight cell state. `pending` is the replica
/// countdown that elects the slot's aggregator/renderer: every worker
/// block that finishes items of the cell decrements by the number it
/// finished, and the decrement that reaches zero (an acq_rel RMW, so it
/// observes every earlier finisher's writes through the release
/// sequence) aggregates the samples and renders the row. The consumer
/// re-arms `pending` with a relaxed store — safe because the pool opens
/// the claim window past a prefix only after on_prefix returns, so no
/// worker can touch the slot concurrently, and the hand-back is ordered
/// by the pool mutex.
struct alignas(kSlotAlign) CellSlot {
  CellResult result;
  std::string arena;
  std::atomic<std::size_t> pending{0};
};
static_assert(alignof(CellSlot) == kSlotAlign);

/// One ring slot of the chunk-batched writer path (replicas == 1): the
/// finished block's rendered bytes plus its verdict tallies. With one
/// item per cell a claimed block is completed entirely by its worker,
/// so the whole chunk's rows can share one arena and the consumer pays
/// one write_rendered — and one ring access — per CHUNK instead of per
/// cell. The worker renders into the arena moved out of the slot and
/// tallies in locals, writing the slot once at block end. Reuse safety
/// is the claim window again: a chunk index is only claimable within
/// window_chunks of the consumed prefix, and the ring is larger than the
/// window.
struct alignas(kSlotAlign) ChunkSlot {
  std::string arena;
  std::size_t rows = 0;
  SweepSummary tally;  // cells unset
};
static_assert(alignof(ChunkSlot) == kSlotAlign);

/// Adds `verdict` to the stable / transient / borderline tallies.
void tally_verdict(SweepSummary& summary, Stability verdict) {
  switch (verdict) {
    case Stability::kPositiveRecurrent:
      ++summary.stable;
      break;
    case Stability::kTransient:
      ++summary.transient;
      break;
    case Stability::kBorderline:
      ++summary.borderline;
      break;
  }
}

/// The shared sweep pipeline behind run_sweep and run_sweep_stream:
/// validates, expands the grid, fans the (cell, replica) items across
/// the pool in chunk-sized blocks, and emits each finished cell in index
/// order as soon as every cell before it is complete. Live state is a
/// ring of O(window) items.
///
/// Exactly one of `sink` / `writer` is non-null. With a writer, the
/// cell's report row is rendered INSIDE the worker that finishes it
/// (into the slot's reusable arena), and the consumer thread only
/// concatenates finished spans into the writer — formatting scales with
/// the pool instead of serializing on the consumer. With a sink, the
/// CellResult is handed over unrendered (run_sweep keeps the structs).
SweepSummary sweep_cells_ordered(const SweepGrid& grid,
                                 const SweepOptions& options,
                                 const std::function<void(CellResult&&)>* sink,
                                 ReportWriter* writer) {
  P2P_ASSERT((sink != nullptr) != (writer != nullptr));
  validate_caller_axes(grid);
  validate_options(options);
  const SweepGrid effective = effective_grid(grid);
  validate_effective_axes(effective, options);
  if (!options.theory_only && options.sim_backend == SimBackend::kTypeCount) {
    // A forced backend must never silently change the law: abort up
    // front, naming the offending axis, instead of running out-of-domain
    // cells on the wrong simulator (kAuto falls back per cell instead).
    const std::string violation =
        typecount_domain_violation(effective, options.scenario);
    P2P_ASSERT_MSG(violation.empty(), violation);
  }

  const std::size_t num_cells = effective.num_cells();
  // Theory-only sweeps run one closed-form item per cell: fanning unused
  // replica slots would just multiply claim traffic.
  const std::size_t replicas =
      options.theory_only ? 1 : static_cast<std::size_t>(options.replicas);
  P2P_ASSERT_MSG(num_cells <= SIZE_MAX / replicas,
                 "sweep work item count overflows size_t (" +
                     std::to_string(num_cells) + " cells x " +
                     std::to_string(replicas) + " replicas)");
  const std::size_t num_items = num_cells * replicas;

  const RingPlan plan = plan_rings(num_items, replicas, options);
  const std::size_t ring_items = plan.ring_items;
  // The slot ring is rounded up to a power of two so the per-cell slot
  // lookup is a mask, not a division — the ring only ever grows, so the
  // reuse-safety argument (claim window opens after the consumer) is
  // unchanged.
  std::size_t cell_ring = 1;
  while (cell_ring < plan.block_ring) cell_ring *= 2;
  const std::size_t slot_mask = cell_ring - 1;

  // With one item per cell and a writer, a claimed block is finished
  // entirely by one worker, so the pipeline batches whole chunks: each
  // block renders into its chunk's arena and the ring carries
  // (range, bytes) instead of per-cell structs.
  const bool chunk_mode = writer != nullptr && replicas == 1;
  std::size_t chunk_ring = 1;
  if (chunk_mode) {
    const std::size_t window_chunks = plan.window / plan.chunk;
    while (chunk_ring < window_chunks + 2) chunk_ring *= 2;
  }
  const std::size_t chunk_mask = chunk_ring - 1;
  std::vector<ChunkSlot> chunk_slots(chunk_mode ? chunk_ring : 0);

  std::vector<ReplicaSample> samples(
      options.theory_only || chunk_mode ? 0 : ring_items);
  std::vector<CellSlot> slots(chunk_mode ? 0 : cell_ring);
  if (replicas > 1) {
    for (auto& slot : slots) {
      slot.pending.store(replicas, std::memory_order_relaxed);
    }
  }

  const AxisSlots axis_slots = resolve_axis_slots(effective);
  std::optional<GridRenderPlan> render;
  if (writer != nullptr) {
    render.emplace(make_grid_render_plan(effective, options, *writer));
  }

  SweepSummary summary;
  summary.cells = num_cells;
  std::size_t emitted = 0;

  ThreadPool pool(options.threads);
  pool.parallel_for_streaming_blocks(
      num_items, plan.chunk, plan.window,
      [&](std::size_t begin, std::size_t end) {
        // One claimed block: walk its cells with an odometer cursor and
        // a reused arrival buffer — the per-item work is rounding, the
        // closed form, and (in replica mode) the simulations; nothing
        // here allocates per cell in the theory-only path.
        CellCursor cursor(effective);
        cursor.seek(begin / replicas);
        std::vector<ArrivalSpec> arrival_scratch;
        if (chunk_mode) {
          // Chunk-batched path: one local CellResult reused across the
          // block's cells, rows appended to the chunk's arena (moved out
          // of the slot and reserved for the block's longest possible
          // rows, so it never regrows), verdicts tallied in a local (the
          // sums are order-free, so the totals stay deterministic). The
          // slot is written once, at the end.
          ChunkSlot& cslot = chunk_slots[(begin / plan.chunk) & chunk_mask];
          std::string arena = std::move(cslot.arena);
          arena.clear();
          arena.reserve((end - begin) * render->max_row_bytes);
          SweepSummary tally;
          CellResult result;
          for (std::size_t cell = begin; cell < end; ++cell) {
            const CellParams p = cell_params(axis_slots, cursor.values(),
                                             options.scenario.policy);
            fill_cell(result, cell, p, options, arrival_scratch);
            if (!options.theory_only) {
              const ReplicaSample sample = simulate_replica(
                  p, options,
                  derive_seed(options.base_seed, kStreamCellSim, cell, 0));
              Rng agg_rng(
                  derive_seed(options.base_seed, kStreamCellAgg, cell, 0));
              result.sim = aggregate_samples(
                  std::span<const ReplicaSample>(&sample, 1), options,
                  agg_rng);
            }
            tally_verdict(tally, result.theory.verdict);
            RowRenderer::Row row(render->renderer, arena);
            render_grid_row(*render, options, &cursor.digits(), result, row);
            row.end();
            if (cell + 1 < end) cursor.advance();
          }
          cslot.arena = std::move(arena);
          cslot.rows = end - begin;
          cslot.tally = tally;
          return;
        }
        // single = the one-replica shape: item == cell, so the per-cell
        // loop below runs no division at all.
        const bool single = replicas == 1;
        std::size_t item = begin;
        while (item < end) {
          const std::size_t cell = single ? item : item / replicas;
          const std::size_t cell_end =
              single ? item + 1 : std::min(end, (cell + 1) * replicas);
          CellSlot& slot = slots[cell & slot_mask];
          const CellParams p = cell_params(axis_slots, cursor.values(),
                                           options.scenario.policy);
          if (single || item % replicas == 0) {
            fill_cell(slot.result, cell, p, options, arrival_scratch);
          }
          if (!options.theory_only) {
            for (std::size_t it = item; it < cell_end; ++it) {
              samples[it % ring_items] = simulate_replica(
                  p, options,
                  derive_seed(options.base_seed, kStreamCellSim, cell,
                              it % replicas));
            }
          }
          // The finisher that completes the cell (with one replica:
          // always this block) aggregates and renders it, on whatever
          // worker thread it ran — seeds and formatting depend only on
          // the cell index, so the bytes cannot.
          const std::size_t done = cell_end - item;
          const bool last =
              single ||
              slot.pending.fetch_sub(done, std::memory_order_acq_rel) == done;
          if (last) {
            if (!options.theory_only) {
              Rng agg_rng(
                  derive_seed(options.base_seed, kStreamCellAgg, cell, 0));
              slot.result.sim = aggregate_samples(
                  std::span<const ReplicaSample>(
                      samples.data() + (cell * replicas) % ring_items,
                      replicas),
                  options, agg_rng);
            }
            if (render) {
              slot.arena.clear();
              RowRenderer::Row row(render->renderer, slot.arena);
              render_grid_row(*render, options, &cursor.digits(), slot.result,
                              row);
              row.end();
            }
          }
          item = cell_end;
          if (item < end) cursor.advance();
        }
      },
      [&](std::size_t prefix_items) {
        // The consumer runs serially on the calling thread in cell
        // order; with a writer it only tallies verdicts and concatenates
        // the pre-rendered spans — one span per chunk in chunk mode.
        if (chunk_mode) {
          while (emitted < prefix_items) {
            ChunkSlot& cslot =
                chunk_slots[(emitted / plan.chunk) & chunk_mask];
            writer->write_rendered(cslot.arena, cslot.rows);
            summary.stable += cslot.tally.stable;
            summary.transient += cslot.tally.transient;
            summary.borderline += cslot.tally.borderline;
            emitted += cslot.rows;
          }
          return;
        }
        const std::size_t complete_cells = prefix_items / replicas;
        for (; emitted < complete_cells; ++emitted) {
          CellSlot& slot = slots[emitted & slot_mask];
          tally_verdict(summary, slot.result.theory.verdict);
          if (writer != nullptr) {
            writer->write_rendered(slot.arena, 1);
          } else {
            (*sink)(std::move(slot.result));
          }
          if (replicas > 1) {
            slot.pending.store(replicas, std::memory_order_relaxed);
          }
        }
      });
  return summary;
}

}  // namespace

Axis parse_axis(const std::string& spec) {
  // Every message names the offending spec verbatim: a sweep command
  // often carries half a dozen ';'-separated axes, and an abort that
  // does not say which one is malformed sends the user diffing specs by
  // hand.
  const auto eq = spec.find('=');
  P2P_ASSERT_MSG(eq != std::string::npos && eq > 0 && eq + 1 < spec.size(),
                 "axis spec must look like name=lo:hi:count, name=v1,v2 "
                 "or name=v (got \"" +
                     spec + "\")");
  Axis axis;
  axis.name = spec.substr(0, eq);
  const std::string body = spec.substr(eq + 1);

  if (body.find(':') != std::string::npos) {
    // Inclusive linspace lo:hi:count.
    const auto c1 = body.find(':');
    const auto c2 = body.find(':', c1 + 1);
    P2P_ASSERT_MSG(c2 != std::string::npos &&
                       body.find(':', c2 + 1) == std::string::npos,
                   "linspace axis must be name=lo:hi:count (got \"" + spec +
                       "\")");
    const double lo = parse_value(body.substr(0, c1), spec);
    const double hi = parse_value(body.substr(c1 + 1, c2 - c1 - 1), spec);
    const double count_raw = parse_value(body.substr(c2 + 1), spec);
    const long count = std::lround(count_raw);
    P2P_ASSERT_MSG(count >= 1 && std::abs(count_raw - count) < 1e-9,
                   "linspace count must be a positive integer (got \"" +
                       spec + "\")");
    P2P_ASSERT_MSG(std::isfinite(lo) && std::isfinite(hi),
                   "linspace endpoints must be finite (got \"" + spec +
                       "\")");
    for (long i = 0; i < count; ++i) {
      axis.values.push_back(
          count == 1 ? lo
                     : lo + (hi - lo) * static_cast<double>(i) /
                                static_cast<double>(count - 1));
    }
  } else {
    // Explicit list (possibly a single value).
    for (const std::string& token : split_list(body, ',')) {
      axis.values.push_back(parse_value(token, spec));
    }
  }
  return axis;
}

std::size_t SweepGrid::num_cells() const {
  std::size_t n = 1;
  for (const auto& axis : axes) {
    const std::size_t size = axis.values.size();
    // A hostile spec (four 65536-point linspaces) would wrap the product
    // and silently under-allocate the whole sweep; fail fast and name
    // the grid's axis sizes so the user sees which spec did it.
    if (size != 0 && n > SIZE_MAX / size) {
      std::string shape;
      for (const auto& a : axes) {
        if (!shape.empty()) shape += " x ";
        shape += a.name + "[" + std::to_string(a.values.size()) + "]";
      }
      P2P_ASSERT_MSG(false,
                     "sweep grid cell count overflows size_t (grid " +
                         shape + ")");
    }
    n *= size;
  }
  return axes.empty() ? 0 : n;
}

std::vector<double> SweepGrid::cell_values(std::size_t index) const {
  P2P_ASSERT(index < num_cells());
  std::vector<double> values(axes.size());
  std::size_t rem = index;
  for (std::size_t i = axes.size(); i-- > 0;) {
    const std::size_t size = axes[i].values.size();
    values[i] = axes[i].values[rem % size];
    rem /= size;
  }
  return values;
}

void SweepGrid::set_axis(Axis axis) {
  for (auto& existing : axes) {
    if (existing.name == axis.name) {
      existing = std::move(axis);
      return;
    }
  }
  axes.push_back(std::move(axis));
}

const Axis* SweepGrid::find_axis(const std::string& name) const {
  for (const auto& axis : axes) {
    if (axis.name == name) return &axis;
  }
  return nullptr;
}

SweepGrid parse_grid(const std::string& spec) {
  SweepGrid grid;
  std::size_t start = 0;
  while (start < spec.size()) {
    auto semi = spec.find(';', start);
    if (semi == std::string::npos) semi = spec.size();
    if (semi > start) {
      grid.set_axis(parse_axis(spec.substr(start, semi - start)));
    }
    start = semi + 1;
  }
  return grid;
}

SweepGrid default_region_grid() {
  SweepGrid grid;
  grid.set_axis(parse_axis("lambda=0.5:3.0:16"));
  grid.set_axis(parse_axis("us=0.2:1.7:16"));
  grid.set_axis(parse_axis("mu=1"));
  grid.set_axis(parse_axis("gamma=1.25"));
  grid.set_axis(parse_axis("k=3"));
  grid.set_axis(parse_axis("eta=1"));
  grid.set_axis(parse_axis("flash=0"));
  grid.set_axis(parse_axis("mix=0"));
  grid.set_axis(parse_axis("hetero=0"));
  return grid;
}

SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& options) {
  SweepResult result;
  result.options = options;
  const std::function<void(CellResult&&)> sink = [&](CellResult&& cell) {
    result.cells.push_back(std::move(cell));
  };
  sweep_cells_ordered(grid, options, &sink, nullptr);
  result.grid = effective_grid(grid);
  return result;
}

SweepSummary run_sweep_stream(const SweepGrid& grid,
                              const SweepOptions& options,
                              ReportWriter& writer) {
  P2P_ASSERT_MSG(writer.columns() == sweep_columns(options),
                 "run_sweep_stream writer must be built with "
                 "sweep_columns(options)");
  return sweep_cells_ordered(grid, options, nullptr, &writer);
}

namespace {

// The single source of truth for both report headers. sweep_columns /
// frontier_columns assemble the emitted headers from these arrays, and
// the corpus reader (engine/csv_reader.cpp) validates archived headers
// against the same spans — schema drift is a compile-and-test failure,
// not a corrupted notebook months later.
constexpr const char* kSweepHead[] = {"cell", "lambda", "us",    "mu",
                                      "gamma", "k",     "eta",   "flash",
                                      "mix",   "hetero"};
constexpr const char* kSweepTail[] = {
    "verdict",           "margin",          "critical_piece",
    "replicas",          "sim_final_peers", "sim_mean_peers",
    "sim_mean_sojourn",  "sim_mean_peers_sem",
    "sim_mean_peers_lo", "sim_mean_peers_hi", "ctmc_mean_peers"};
constexpr const char* kFrontierHead[] = {
    "row", "axis", "bracketed", "value", "value_lo", "value_hi", "margin",
    "lambda", "us", "mu", "gamma", "k", "eta", "flash", "mix", "hetero"};
constexpr const char* kFrontierTail[] = {
    "replicas", "sim_mean_peers", "sim_mean_peers_sem", "sim_mean_peers_lo",
    "sim_mean_peers_hi"};

/// head + [per-type block] + tail + [sim_backend] + [policy] +
/// [fluid_verdict], the shape of both report tables. The optional
/// columns trail the fixed tail in that order so every archived corpus
/// remains a prefix of the new schema (the reader treats each as
/// optional).
std::vector<std::string> schema_columns(std::span<const char* const> head,
                                        std::span<const char* const> tail,
                                        const ScenarioSpec& scenario,
                                        bool with_backend, bool with_policy,
                                        bool with_fluid) {
  std::vector<std::string> cols(head.begin(), head.end());
  if (!scenario.empty()) {
    // Per-type arrival-rate columns: the composition the mix axis
    // actually produced, one column per stream of the scenario.
    cols.push_back(kLambdaEmptyColumn);
    for (const auto& a : scenario.mix) cols.push_back(mix_column_name(a.type));
  }
  cols.insert(cols.end(), tail.begin(), tail.end());
  if (with_backend) cols.push_back(kSimBackendColumn);
  if (with_policy) cols.push_back(kPolicyColumn);
  if (with_fluid) cols.push_back(kFluidVerdictColumn);
  return cols;
}

}  // namespace

std::span<const char* const> sweep_schema_head() { return kSweepHead; }
std::span<const char* const> sweep_schema_tail() { return kSweepTail; }
std::span<const char* const> frontier_schema_head() { return kFrontierHead; }
std::span<const char* const> frontier_schema_tail() { return kFrontierTail; }

std::string mix_column_name(PieceSet type) {
  std::string name = kLambdaTypePrefix;
  bool first = true;
  for (int piece : type) {
    if (!first) name += '.';
    name += std::to_string(piece + 1);
    first = false;
  }
  return name;
}

std::vector<std::string> sweep_columns(const SweepOptions& options) {
  // Theory-only grids carry no backend or policy column: no simulator
  // ran, and archived closed-form corpora must keep reproducing
  // byte-identically. The policy column likewise stays absent on the
  // RandomUseful baseline, so pre-policy sim archives keep their bytes.
  const bool sim = !options.theory_only;
  return schema_columns(
      sweep_schema_head(), sweep_schema_tail(), options.scenario, sim,
      sim && options.scenario.policy != PolicyKind::kRandomUseful,
      options.fluid);
}

const char* to_string(SimBackend backend) {
  switch (backend) {
    case SimBackend::kPerPeer:
      return "perpeer";
    case SimBackend::kTypeCount:
      return "typecount";
    case SimBackend::kAuto:
      break;
  }
  P2P_ASSERT_MSG(false, "kAuto is a request, not a resolved backend");
  return "";
}

bool typecount_in_domain(const CellParams& p) {
  // eta != 1 is per-peer state (the retry boost tracks each peer's last
  // contact), hetero != 0 draws per-peer rate classes, the dense
  // type-count state caps K at 16, and any policy besides RandomUseful
  // makes the transfer law depend on which concrete peer is contacted —
  // outside any of these, only the per-peer simulator realizes the
  // cell's law.
  return p.policy == PolicyKind::kRandomUseful && p.eta == 1.0 &&
         p.hetero == 0.0 && p.k <= 16;
}

SimBackend resolve_sim_backend(SimBackend requested, const CellParams& p) {
  if (requested != SimBackend::kAuto) return requested;
  return typecount_in_domain(p) ? SimBackend::kTypeCount
                                : SimBackend::kPerPeer;
}

std::string typecount_domain_violation(const SweepGrid& grid,
                                       const ScenarioSpec& scenario) {
  if (scenario.policy != PolicyKind::kRandomUseful) {
    // The policy is a scenario dimension, not a grid axis, but the
    // message keeps the named-axis shape of the other domain legs so
    // every violation reads the same way.
    return std::string("the typecount backend requires policy = "
                       "random-useful (the exchangeable type-count state "
                       "assumes the Theorem-1 selection law), but axis "
                       "policy takes the value ") +
           to_string(scenario.policy) +
           "; drop the axis or use the perpeer/auto backend";
  }
  const SweepGrid effective = effective_grid(grid);
  const auto offends = [](const std::string& name, double v) {
    if (name == "eta") return v != 1.0;
    if (name == "hetero") return v != 0.0;
    if (name == "k") return v > 16;
    return false;
  };
  const auto requirement = [](const std::string& name) {
    if (name == "eta") {
      return "eta = 1 (the Section VIII-C retry boost is per-peer state)";
    }
    if (name == "hetero") {
      return "hetero = 0 (rate classes are drawn per peer)";
    }
    return "k <= 16 (the dense type-count state is 2^k wide)";
  };
  for (const auto& axis : effective.axes) {
    for (const double v : axis.values) {
      if (offends(axis.name, v)) {
        return "the typecount backend requires " +
               std::string(requirement(axis.name)) + ", but axis " +
               axis.name + " takes the value " +
               format_number(v) +
               "; drop the axis or use the perpeer/auto backend";
      }
    }
  }
  return {};
}

std::string typecount_domain_violation(const SweepGrid& grid) {
  return typecount_domain_violation(grid, ScenarioSpec{});
}

void SweepResult::write(ReportWriter& writer) const {
  P2P_ASSERT_MSG(writer.columns() == sweep_columns(options),
                 "SweepResult::write needs a writer built with "
                 "sweep_columns(options)");
  const GridRenderPlan plan = make_grid_render_plan(grid, options, writer);
  std::string arena;
  for (const CellResult& c : cells) {
    RowRenderer::Row row(plan.renderer, arena);
    render_grid_row(plan, options, /*digits=*/nullptr, c, row);
    row.end();
  }
  writer.write_rendered(arena, cells.size());
}

RefineOptions parse_refine(const std::string& spec) {
  const auto colon = spec.find(':');
  P2P_ASSERT_MSG(colon != std::string::npos && colon > 0 &&
                     colon + 1 < spec.size(),
                 "refine spec must look like axis:tol, e.g. lambda:0.01 "
                 "(got \"" +
                     spec + "\")");
  RefineOptions refine;
  refine.axis = spec.substr(0, colon);
  refine.tol = parse_value(spec.substr(colon + 1), spec);
  P2P_ASSERT_MSG(std::isfinite(refine.tol) && refine.tol > 0,
                 "refine tolerance must be positive and finite (got \"" +
                     spec + "\")");
  return refine;
}

bool refinable_axis(const std::string& name) {
  for (const char* known : kRefinableAxes) {
    if (name == known) return true;
  }
  return false;
}

namespace {

/// Closed-form bisection of one row: scan the refined axis's coarse
/// values for the first adjacent verdict change, then halve the bracket
/// until it is at most `tol` wide. No simulation runs here — Theorem 1
/// is a formula — which is what lets refinement localize the boundary
/// ~10 bisections deep for the price of one coarse cell.
FrontierPoint bisect_row(const SweepGrid& rows, std::size_t row,
                         const Axis& refined, const RefineOptions& refine,
                         const ScenarioSpec& scenario) {
  std::vector<Axis> axes = rows.axes;
  axes.push_back(Axis{refined.name, {}});
  std::vector<double> values = rows.cell_values(row);
  values.push_back(0);
  const auto params_at = [&](double v) {
    values.back() = v;
    CellParams p = extract_params(axes, values);
    p.policy = scenario.policy;
    return p;
  };
  const auto verdict_at = [&](double v) {
    return classify(expand(scenario, params_at(v)).params).verdict;
  };

  FrontierPoint pt;
  pt.row = row;

  std::vector<Stability> verdicts(refined.values.size());
  for (std::size_t i = 0; i < refined.values.size(); ++i) {
    verdicts[i] = verdict_at(refined.values[i]);
  }
  std::size_t bracket = refined.values.size();
  for (std::size_t i = 0; i + 1 < refined.values.size(); ++i) {
    if (verdicts[i] != verdicts[i + 1]) {
      bracket = i;
      break;
    }
  }
  if (bracket == refined.values.size()) {
    // No flip inside the coarse range: report the row's parameters with
    // the refined slot (and everything downstream) NaN.
    pt.params = params_at(std::nan(""));
    return pt;
  }

  const auto [lo, hi] =
      bisect_verdict_flip(refined.values[bracket], refined.values[bracket + 1],
                          verdicts[bracket], refine.tol, verdict_at);
  pt.bracketed = true;
  pt.value_lo = lo;
  pt.value_hi = hi;
  pt.value = 0.5 * (lo + hi);
  pt.params = params_at(pt.value);
  pt.margin = classify(expand(scenario, pt.params).params).margin;
  return pt;
}

/// One ring slot of in-flight frontier state; see CellSlot for the
/// `pending` countdown and re-arm protocol.
struct alignas(kSlotAlign) FrontierSlot {
  FrontierPoint point;
  std::string arena;
  std::atomic<std::size_t> pending{0};
};
static_assert(alignof(FrontierSlot) == kSlotAlign);

/// Renders one localized frontier point into `arena`: the one frontier
/// row encoder, for the streamed and the retained points alike.
void render_frontier_row(const RowRenderer& renderer,
                         const FrontierPoint& pt, const RefineOptions& refine,
                         const SweepOptions& options, std::string& arena) {
  RowRenderer::Row row(renderer, arena);
  row.number(static_cast<double>(pt.row));
  row.text(refine.axis);
  row.number(pt.bracketed ? 1 : 0);
  row.number(pt.value);
  row.number(pt.value_lo);
  row.number(pt.value_hi);
  row.number(pt.margin);
  row.number(pt.params.lambda);
  row.number(pt.params.us);
  row.number(pt.params.mu);
  row.number(pt.params.gamma);
  row.number(pt.params.k);
  row.number(pt.params.eta);
  row.number(static_cast<double>(pt.params.flash));
  row.number(pt.params.mix);
  row.number(pt.params.hetero);
  if (!options.scenario.empty()) {
    row.number((1.0 - pt.params.mix) * pt.params.lambda);
    for (const auto& a : options.scenario.mix) {
      row.number(pt.params.mix * pt.params.lambda * a.rate);
    }
  }
  row.number(pt.sim.replicas);
  row.number(pt.sim.mean_peers_mean);
  row.number(pt.sim.mean_peers_sem);
  row.number(pt.sim.mean_peers_lo);
  row.number(pt.sim.mean_peers_hi);
  // The backend the point's replicas run on; the refined axis is never
  // a domain axis (eta/hetero/k), so the resolution is well defined
  // even for unbracketed rows.
  row.text(to_string(resolve_sim_backend(options.sim_backend, pt.params)));
  if (options.scenario.policy != PolicyKind::kRandomUseful) {
    row.text(to_string(options.scenario.policy));
  }
  row.end();
}

/// The shared frontier pipeline behind refine_frontier and
/// run_frontier_stream: validates, fans the (row, replica) items across
/// the pool in chunk-sized blocks, and emits each localized point in
/// row order as soon as every row before it is complete. Each block
/// re-runs the closed-form bisection once per row it touches instead of
/// publishing it across blocks: the bisection is a deterministic
/// handful of classify() calls, cheap next to one replica simulation,
/// and recomputing it keeps the live state a ring of O(chunk * threads)
/// items with no cross-item synchronization. Unbracketed rows skip the
/// simulation entirely. Seeds key on the row index, so adding an
/// unbracketed row elsewhere in the grid never shifts another row's
/// streams — and the emitted numbers match the retained-points emitter
/// of PRs 2/3 bit-exactly.
///
/// Exactly one of `sink` / `writer` is non-null; with a writer the row
/// bytes are rendered by the finishing worker, as in the grid pipeline.
FrontierSummary frontier_points_ordered(
    const SweepGrid& grid, const SweepOptions& options,
    const RefineOptions& refine,
    const std::function<void(FrontierPoint&&)>* sink, ReportWriter* writer,
    SweepGrid* effective_out = nullptr) {
  P2P_ASSERT((sink != nullptr) != (writer != nullptr));
  validate_caller_axes(grid);
  validate_options(options);
  const SweepGrid effective = effective_grid(grid);
  validate_effective_axes(effective, options);
  if (options.sim_backend == SimBackend::kTypeCount) {
    // Same forced-backend guard as the grid pipeline: frontier points
    // always simulate, so an out-of-domain row axis must abort up front.
    const std::string violation =
        typecount_domain_violation(effective, options.scenario);
    P2P_ASSERT_MSG(violation.empty(), violation);
  }
  if (effective_out != nullptr) *effective_out = effective;

  P2P_ASSERT_MSG(refinable_axis(refine.axis),
                 "refine axis must be one of lambda, us, mu, gamma, mix");
  // The frontier's whole point is simulating at the localized flip;
  // accepting theory_only here would silently skip those sims while the
  // table still advertises replica columns.
  P2P_ASSERT_MSG(!options.theory_only,
                 "theory_only applies to grid sweeps, not refine_frontier");
  P2P_ASSERT_MSG(std::isfinite(refine.tol) && refine.tol > 0,
                 "refine tolerance must be positive and finite");
  const Axis* refined = effective.find_axis(refine.axis);
  P2P_ASSERT(refined != nullptr);
  P2P_ASSERT_MSG(refined->values.size() >= 2,
                 "refined axis needs >= 2 coarse values to bracket a flip");
  for (const double v : refined->values) {
    P2P_ASSERT_MSG(std::isfinite(v), "refined axis values must be finite");
  }

  SweepGrid rows;
  for (const auto& axis : effective.axes) {
    if (axis.name != refine.axis) rows.axes.push_back(axis);
  }
  const std::size_t num_rows = rows.num_cells();
  const std::size_t replicas = static_cast<std::size_t>(options.replicas);
  P2P_ASSERT_MSG(num_rows <= SIZE_MAX / replicas,
                 "frontier work item count overflows size_t");
  const std::size_t num_items = num_rows * replicas;

  const RingPlan plan = plan_rings(num_items, replicas, options);
  std::vector<ReplicaSample> samples(plan.ring_items);
  std::vector<FrontierSlot> slots(plan.block_ring);
  if (replicas > 1) {
    for (auto& slot : slots) {
      slot.pending.store(replicas, std::memory_order_relaxed);
    }
  }

  std::optional<RowRenderer> renderer;
  if (writer != nullptr) {
    renderer.emplace(writer->format(), writer->columns());
  }

  FrontierSummary summary;
  summary.rows = num_rows;
  std::size_t emitted = 0;

  ThreadPool pool(options.threads);
  pool.parallel_for_streaming_blocks(
      num_items, plan.chunk, plan.window,
      [&](std::size_t begin, std::size_t end) {
        std::size_t item = begin;
        while (item < end) {
          const std::size_t row = item / replicas;
          const std::size_t row_end = std::min(end, (row + 1) * replicas);
          FrontierSlot& slot = slots[row % slots.size()];
          FrontierPoint pt =
              bisect_row(rows, row, *refined, refine, options.scenario);
          if (item % replicas == 0) slot.point = pt;
          if (pt.bracketed) {
            for (std::size_t it = item; it < row_end; ++it) {
              samples[it % plan.ring_items] = simulate_replica(
                  pt.params, options,
                  derive_seed(options.base_seed, kStreamFrontierSim, row,
                              it % replicas));
            }
          }
          const std::size_t done = row_end - item;
          const bool last =
              replicas == 1 ||
              slot.pending.fetch_sub(done, std::memory_order_acq_rel) == done;
          if (last) {
            if (pt.bracketed) {
              Rng agg_rng(derive_seed(options.base_seed, kStreamFrontierAgg,
                                      row, 0));
              slot.point.sim = aggregate_samples(
                  std::span<const ReplicaSample>(
                      samples.data() + (row * replicas) % plan.ring_items,
                      replicas),
                  options, agg_rng);
              pt.sim = slot.point.sim;
            }
            if (renderer) {
              slot.arena.clear();
              render_frontier_row(*renderer, pt, refine, options, slot.arena);
            }
          }
          item = row_end;
        }
      },
      [&](std::size_t prefix_items) {
        // The consumer runs serially on the calling thread in row order;
        // with a writer it only tallies brackets and concatenates the
        // pre-rendered spans.
        const std::size_t complete_rows = prefix_items / replicas;
        for (; emitted < complete_rows; ++emitted) {
          FrontierSlot& slot = slots[emitted % slots.size()];
          if (slot.point.bracketed) ++summary.bracketed;
          if (writer != nullptr) {
            writer->write_rendered(slot.arena, 1);
          } else {
            (*sink)(std::move(slot.point));
          }
          if (replicas > 1) {
            slot.pending.store(replicas, std::memory_order_relaxed);
          }
        }
      });
  return summary;
}

}  // namespace

FrontierResult refine_frontier(const SweepGrid& grid,
                               const SweepOptions& options,
                               const RefineOptions& refine) {
  FrontierResult result;
  result.refine = refine;
  result.options = options;
  const std::function<void(FrontierPoint&&)> sink = [&](FrontierPoint&& pt) {
    result.points.push_back(std::move(pt));
  };
  frontier_points_ordered(grid, options, refine, &sink, nullptr,
                          &result.grid);
  return result;
}

FrontierSummary run_frontier_stream(const SweepGrid& grid,
                                    const SweepOptions& options,
                                    const RefineOptions& refine,
                                    ReportWriter& writer) {
  P2P_ASSERT_MSG(writer.columns() == frontier_columns(options),
                 "run_frontier_stream writer must be built with "
                 "frontier_columns(options)");
  return frontier_points_ordered(grid, options, refine, nullptr, &writer);
}

std::vector<std::string> frontier_columns(const SweepOptions& options) {
  // The per-type block records the composition each localized point ran
  // (NaN when the row never bracketed a flip) — the mix weights are not
  // recoverable from the generic axis columns alone.
  return schema_columns(
      frontier_schema_head(), frontier_schema_tail(), options.scenario,
      /*with_backend=*/true,
      options.scenario.policy != PolicyKind::kRandomUseful,
      /*with_fluid=*/false);
}

void FrontierResult::write(ReportWriter& writer) const {
  P2P_ASSERT_MSG(writer.columns() == frontier_columns(options),
                 "FrontierResult::write needs a writer built with "
                 "frontier_columns(options)");
  const RowRenderer renderer(writer.format(), writer.columns());
  std::string arena;
  for (const FrontierPoint& pt : points) {
    render_frontier_row(renderer, pt, refine, options, arena);
  }
  writer.write_rendered(arena, points.size());
}

}  // namespace p2p::engine
