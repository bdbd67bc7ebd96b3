#include "engine/refine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/cell_eval.hpp"
#include "engine/page_allocator.hpp"
#include "engine/parse_util.hpp"
#include "engine/thread_pool.hpp"
#include "engine/uninit_allocator.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace p2p::engine {

namespace {

/// 2^d corner evaluations per box; past six dimensions the corner count
/// alone (64/box) erases the adaptive savings and the volume should be
/// sliced instead.
constexpr std::size_t kMaxAdaptiveAxes = 6;
constexpr int kMaxAdaptiveDepth = 20;

/// A vertex's fine index on each adaptive axis.
using Coords = std::array<std::uint64_t, kMaxAdaptiveAxes>;

/// The fine vertex lattice the refinement subdivides into. Each adaptive
/// axis's caller values are the coarse vertices; with S = 2^max_depth,
/// fine index g on an axis with coarse values v[0..n-1] denotes
///
///   v[g / S] + (v[g / S + 1] - v[g / S]) * ((g mod S) / S)
///
/// — exactly v[i] at the coarse vertices (g = i * S), so a depth-0 run
/// evaluates precisely the caller's lattice. A vertex's key is its
/// row-major linear fine index (last adaptive axis fastest), which is
/// also the `a` component of its replica seeds — a pure function of the
/// grid, never of evaluation order.
struct AdaptiveLattice {
  SweepGrid effective;
  AxisSlots slots;
  /// Effective-grid slots of the adaptive (>= 2 values) axes, grid order.
  std::vector<std::size_t> axes;
  /// Every effective axis's first value; adaptive slots get overwritten
  /// per vertex.
  std::vector<double> base_values;
  int depth_bits = 0;       // max_depth
  std::uint64_t scale = 1;  // 2^max_depth fine steps per coarse box
  /// Per adaptive axis: coarse box count, fine vertex count
  /// (boxes * scale + 1), and the row-major key stride.
  std::vector<std::uint64_t> boxes;
  std::vector<std::uint64_t> dims;
  std::vector<std::uint64_t> strides;
  std::size_t dense_equivalent = 1;

  /// Fine indices of the vertex with this key.
  Coords coords(std::uint64_t key) const {
    Coords g{};
    for (std::size_t j = axes.size(); j-- > 0;) {
      g[j] = key % dims[j];
      key /= dims[j];
    }
    return g;
  }

  /// Axis j's value at fine index g. S is a power of two, so g / S and
  /// g mod S are a shift and a mask.
  double vertex_value(std::size_t j, std::uint64_t g) const {
    const std::vector<double>& vals = effective.axes[axes[j]].values;
    const std::uint64_t ci = g >> depth_bits;
    const std::uint64_t f = g & (scale - 1);
    if (f == 0) return vals[ci];
    return vals[ci] + (vals[ci + 1] - vals[ci]) *
                          (static_cast<double>(f) / static_cast<double>(scale));
  }

  /// Physical width on axis j of a box at fine index g with fine extent
  /// `ext`.
  double width(std::size_t j, std::uint64_t g, std::uint64_t ext) const {
    return vertex_value(j, g + ext) - vertex_value(j, g);
  }

  /// The cell parameters at fine indices `g`; `values` is the caller's
  /// scratch.
  CellParams params(const Coords& g, std::vector<double>& values,
                    PolicyKind policy) const {
    values = base_values;
    for (std::size_t j = 0; j < axes.size(); ++j) {
      values[axes[j]] = vertex_value(j, g[j]);
    }
    return cell_params(slots, values, policy);
  }
};

AdaptiveLattice make_lattice(const SweepGrid& grid,
                             const SweepOptions& options,
                             const AdaptiveOptions& adaptive) {
  validate_caller_axes(grid);
  validate_options(options);
  P2P_ASSERT_MSG(
      adaptive.max_depth >= 0 && adaptive.max_depth <= kMaxAdaptiveDepth,
      "adaptive depth must lie in [0, " + std::to_string(kMaxAdaptiveDepth) +
          "]");
  P2P_ASSERT_MSG(adaptive.tol >= 0 && std::isfinite(adaptive.tol),
                 "adaptive tolerance must be nonnegative and finite");
  P2P_ASSERT_MSG(adaptive.max_sim_rounds >= 1,
                 "adaptive max_sim_rounds must be >= 1");

  AdaptiveLattice lat;
  lat.effective = effective_grid(grid);
  validate_effective_axes(lat.effective, options);
  lat.slots = resolve_axis_slots(lat.effective);
  lat.depth_bits = adaptive.max_depth;
  lat.scale = std::uint64_t{1} << adaptive.max_depth;
  for (std::size_t i = 0; i < lat.effective.axes.size(); ++i) {
    const Axis& axis = lat.effective.axes[i];
    lat.base_values.push_back(axis.values.front());
    if (axis.values.size() < 2) continue;
    P2P_ASSERT_MSG(
        refinable_axis(axis.name),
        "adaptive refinement subdivides along every varying axis, but axis "
        "\"" +
            axis.name +
            "\" is not refinable (lambda, us, mu, gamma, mix are); pin it to "
            "a single value");
    for (std::size_t v = 0; v < axis.values.size(); ++v) {
      P2P_ASSERT_MSG(std::isfinite(axis.values[v]),
                     "adaptive axis \"" + axis.name +
                         "\" must take finite values");
      P2P_ASSERT_MSG(v == 0 || axis.values[v - 1] < axis.values[v],
                     "adaptive axis \"" + axis.name +
                         "\" must take strictly increasing values");
    }
    lat.axes.push_back(i);
  }
  P2P_ASSERT_MSG(lat.axes.size() >= 2,
                 "adaptive refinement needs at least two varying axes "
                 "(use --refine axis:tol for 1-D localization)");
  P2P_ASSERT_MSG(lat.axes.size() <= kMaxAdaptiveAxes,
                 "adaptive refinement supports at most " +
                     std::to_string(kMaxAdaptiveAxes) + " varying axes (got " +
                     std::to_string(lat.axes.size()) + ")");

  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 1;
  for (const std::size_t slot : lat.axes) {
    const std::uint64_t nb = lat.effective.axes[slot].values.size() - 1;
    P2P_ASSERT_MSG(nb <= (kMax - 1) / lat.scale,
                   "adaptive fine lattice does not fit 64-bit vertex keys; "
                   "lower the depth or coarsen the grid");
    const std::uint64_t dim = nb * lat.scale + 1;
    P2P_ASSERT_MSG(total <= kMax / dim,
                   "adaptive fine lattice does not fit 64-bit vertex keys; "
                   "lower the depth or coarsen the grid");
    total *= dim;
    lat.boxes.push_back(nb);
    lat.dims.push_back(dim);
  }
  lat.dense_equivalent = total;
  lat.strides.assign(lat.axes.size(), 1);
  for (std::size_t j = lat.axes.size() - 1; j-- > 0;) {
    lat.strides[j] = lat.strides[j + 1] * lat.dims[j + 1];
  }
  return lat;
}

/// What the store keeps of one evaluated vertex for every run: the
/// rendered fields of its Theorem-1 report, its backend and fluid
/// verdict, and whether the CI-straddle escalation ran extra replica
/// rounds here. A leaf re-derives its axis values from its key, and a
/// theory-only run's sim cells are constant, so this is all a
/// theory-only vertex needs: 16 bytes.
struct VertexRecord {
  double margin;
  std::int8_t critical_piece;  // in [-1, kMaxPieces)
  std::uint8_t verdict;        // Stability
  std::uint8_t backend;        // SimBackend
  std::uint8_t fluid;          // Stability
  bool escalated;
};
static_assert(sizeof(VertexRecord) == 16);

/// The per-vertex sidecar of a run that simulates or solves the CTMC:
/// the cells a theory-only run renders as constants.
struct VertexSim {
  SimAggregate sim;
  double ctmc_mean_peers;
};
static_assert(std::is_trivially_destructible_v<VertexRecord> &&
                  std::is_trivially_destructible_v<VertexSim>,
              "VertexStore frees its blocks without destroying records");

/// Classifies (and, unless theory_only, simulates) one vertex; `sim` is
/// null unless the run keeps the sidecar (every simulating run does),
/// and is constructed in place otherwise. Replica seeds are (base_seed,
/// kStreamAdaptiveSim, key, replica index) and each aggregation round
/// draws its bootstrap from (base_seed, kStreamAdaptiveAgg, key, round):
/// pure functions of the vertex, so the result is identical no matter
/// which thread — or which generation — evaluates it.
VertexRecord evaluate_vertex(const AdaptiveLattice& lat,
                             const SweepOptions& options,
                             const AdaptiveOptions& adaptive,
                             std::uint64_t key, VertexSim* sim) {
  thread_local std::vector<double> values;
  thread_local std::vector<ArrivalSpec> arrival_scratch;
  thread_local std::vector<ReplicaSample> samples;
  const CellParams p =
      lat.params(lat.coords(key), values, options.scenario.policy);
  CellResult cell;
  fill_cell(cell, /*cell=*/0, p, options, arrival_scratch);
  VertexRecord out{cell.theory.margin,
                   static_cast<std::int8_t>(cell.theory.critical_piece),
                   static_cast<std::uint8_t>(cell.theory.verdict),
                   static_cast<std::uint8_t>(cell.backend),
                   static_cast<std::uint8_t>(cell.fluid),
                   /*escalated=*/false};
  if (sim != nullptr) {
    std::construct_at(sim, VertexSim{cell.sim, cell.ctmc_mean_peers});
  }
  if (options.theory_only) return out;

  // Active learning over the replica budget: every vertex gets the base
  // round; a vertex whose bootstrap CI straddles the decision threshold
  // keeps drawing further rounds (re-aggregated over ALL its samples, so
  // the CI tightens) until it clears or the round cap hits.
  const bool can_escalate =
      std::isfinite(adaptive.sim_threshold) && options.replicas >= 2;
  const int rounds = can_escalate ? adaptive.max_sim_rounds : 1;
  samples.clear();
  for (int round = 0; round < rounds; ++round) {
    for (int rep = 0; rep < options.replicas; ++rep) {
      const std::uint64_t idx =
          static_cast<std::uint64_t>(round) *
              static_cast<std::uint64_t>(options.replicas) +
          static_cast<std::uint64_t>(rep);
      samples.push_back(simulate_replica(
          p, options,
          derive_seed(options.base_seed, kStreamAdaptiveSim, key, idx)));
    }
    Rng agg_rng(derive_seed(options.base_seed, kStreamAdaptiveAgg, key,
                            static_cast<std::uint64_t>(round)));
    sim->sim = aggregate_samples(samples, options, agg_rng);
    if (round + 1 >= rounds) break;
    const double lo = sim->sim.mean_peers_lo;
    const double hi = sim->sim.mean_peers_hi;
    const bool straddles = std::isfinite(lo) && std::isfinite(hi) &&
                           lo <= adaptive.sim_threshold &&
                           adaptive.sim_threshold <= hi;
    if (!straddles) break;
    out.escalated = true;
  }
  return out;
}

/// The report cell of leaf number `index` whose origin vertex has the
/// record `v` and, when the run keeps it, the sidecar `sim`. The axis
/// fields stay unset: the caller fills them when the row needs them.
CellResult leaf_cell(std::size_t index, const VertexRecord& v,
                     const VertexSim* sim) {
  CellResult c;
  c.index = index;
  c.theory.verdict = static_cast<Stability>(v.verdict);
  c.theory.margin = v.margin;
  c.theory.critical_piece = v.critical_piece;
  if (sim != nullptr) {
    c.sim = sim->sim;
    c.ctmc_mean_peers = sim->ctmc_mean_peers;
  }
  c.backend = static_cast<SimBackend>(v.backend);
  c.fluid = static_cast<Stability>(v.fluid);
  return c;
}

/// Copies the parameters `p` into the axis fields of `c`.
void set_axis_fields(CellResult& c, const CellParams& p) {
  c.lambda = p.lambda;
  c.us = p.us;
  c.mu = p.mu;
  c.gamma = p.gamma;
  c.k = p.k;
  c.eta = p.eta;
  c.flash = p.flash;
  c.mix = p.mix;
  c.hetero = p.hetero;
}

/// A vertex's position in evaluation order: its index into VertexStore.
using Slot = std::uint32_t;

/// Evaluated vertices by slot, shared across generations: a vertex
/// introduced as one generation's edge midpoint is a later generation's
/// corner, and is never paid for twice. Each generation's new vertices
/// get one exactly sized block of raw records, plus one of sidecars when
/// the run keeps them; blocks never move. The worker that evaluates a
/// vertex constructs its record in place, so no block is initialized on
/// the caller, and earlier blocks stay readable.
class VertexStore {
 public:
  explicit VertexStore(bool with_sims) : with_sims_(with_sims) {}
  VertexStore(const VertexStore&) = delete;
  VertexStore& operator=(const VertexStore&) = delete;
  ~VertexStore() {
    for (std::size_t b = 0; b < records_.size(); ++b) {
      const std::size_t n = ends_[b] - (b == 0 ? 0 : ends_[b - 1]);
      PageAllocator<VertexRecord>().deallocate(records_[b], n);
      if (with_sims_) PageAllocator<VertexSim>().deallocate(sims_[b], n);
    }
  }

  std::size_t size() const { return ends_.empty() ? 0 : ends_.back(); }

  /// Unconstructed storage for one block's slots; sims is null unless
  /// the store keeps sidecars.
  struct Block {
    VertexRecord* records;
    VertexSim* sims;
  };

  /// Appends unconstructed storage for slots [size(), size() + n).
  Block add_block(std::size_t n) {
    records_.push_back(PageAllocator<VertexRecord>().allocate(n));
    sims_.push_back(with_sims_ ? PageAllocator<VertexSim>().allocate(n)
                               : nullptr);
    ends_.push_back(size() + n);
    return {records_.back(), sims_.back()};
  }

  /// The record of `slot` and its sidecar (null unless kept).
  std::pair<const VertexRecord*, const VertexSim*> operator[](
      Slot slot) const {
    const std::size_t b = static_cast<std::size_t>(
        std::upper_bound(ends_.begin(), ends_.end(), slot) - ends_.begin());
    const std::size_t i = slot - (b == 0 ? 0 : ends_[b - 1]);
    return {&records_[b][i], with_sims_ ? &sims_[b][i] : nullptr};
  }

 private:
  bool with_sims_;
  std::vector<VertexRecord*> records_;
  std::vector<VertexSim*> sims_;
  /// ends_[b]: one past block b's last slot.
  std::vector<std::size_t> ends_;
};

/// One box of a generation: its origin (lower-corner) vertex key and,
/// from depth 1 on, the slots of the two corners it inherits from the
/// parent it was split from. A parent's 2^d children are consecutive in
/// child order, so box b is child p = b mod 2^d, and it inherits corner
/// p (the parent's corner p) and corner ~p (the parent's center).
struct Box {
  std::uint64_t key;
  Slot corner;
  Slot center;
};

/// A shared corner awaiting dedupe: its key and its box_slots position.
struct Candidate {
  std::uint64_t key;
  std::size_t at;
};

/// Shared corners are deduplicated in kShards independent shards chosen
/// by the top kShardBits of the key's Fibonacci hash. The shard count is
/// fixed, so slot numbering does not depend on the thread count.
constexpr unsigned kShardBits = 6;
constexpr std::size_t kShards = std::size_t{1} << kShardBits;
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

std::size_t shard_of(std::uint64_t key) {
  return static_cast<std::size_t>((key * kFibonacci) >> (64 - kShardBits));
}

/// Numbers one shard's distinct keys 0, 1, ... in first-seen order,
/// through a flat open-addressing table (linear probing, at most half
/// full, indexed by the hash bits below the shard's). Writes each
/// candidate's number to its box_slots entry, moves the distinct keys in
/// that order to the front of `shard`, and returns their count.
std::size_t dedupe_shard(std::span<Candidate> shard, Slot* box_slots) {
  if (shard.empty()) return 0;
  // No lattice key reaches it: keys lie below dense_equivalent, which
  // make_lattice bounds by the u64 maximum.
  constexpr std::uint64_t kEmpty = std::numeric_limits<std::uint64_t>::max();
  struct Entry {
    std::uint64_t key = kEmpty;
    Slot number = 0;
  };
  const std::size_t capacity = std::bit_ceil(2 * shard.size());
  const unsigned shift =
      64 - static_cast<unsigned>(std::countr_zero(capacity));
  std::vector<Entry> table(capacity);
  std::size_t distinct = 0;
  for (const Candidate& cand : shard) {
    const std::uint64_t key = cand.key;
    const std::size_t at = cand.at;
    std::size_t i =
        static_cast<std::size_t>(((key * kFibonacci) << kShardBits) >> shift);
    while (table[i].key != key && table[i].key != kEmpty) {
      i = (i + 1) & (capacity - 1);
    }
    if (table[i].key == kEmpty) {
      table[i] = {key, static_cast<Slot>(distinct)};
      shard[distinct++].key = key;  // never past `cand`: safe in place
    }
    box_slots[at] = table[i].number;
  }
  return distinct;
}

/// A generation's scratch buffers are filled in full by the pool right
/// after they are sized, so zeroing them first would only be a serial
/// memset on the caller.
template <typename T>
using Scratch = std::vector<T, UninitAllocator<T>>;

/// Boxes per block in a generation's block-parallel passes.
constexpr std::size_t kBoxBlock = 1024;

/// Runs fn(block, begin, end) on the pool for [0, n) cut into blocks of
/// kBoxBlock.
template <typename Fn>
void for_box_blocks(ThreadPool& pool, std::size_t n, const Fn& fn) {
  pool.parallel_for(
      (n + kBoxBlock - 1) / kBoxBlock,
      [&](std::size_t block) {
        fn(block, block * kBoxBlock, std::min(n, (block + 1) * kBoxBlock));
      },
      1);
}

/// One box block's decide counts and leaf verdict tallies, then where
/// its leaves and children start.
struct BlockTally {
  std::size_t leaves = 0;
  std::size_t splits = 0;
  std::size_t stable = 0;
  std::size_t transient = 0;
  std::size_t borderline = 0;
  std::size_t first_leaf = 0;
  std::size_t first_child = 0;
};

/// Per-box decision bits.
constexpr std::uint8_t kSplit = 1;
constexpr std::uint8_t kUniform = 2;

/// One generation's leaf render as a run_ordered_blocks source: a unit
/// is a leaf, with no replicas (its vertex is evaluated already), and
/// `row(leaf, arena)` appends its whole row.
template <typename LeafRow>
struct LeafSource {
  struct Unit {};
  using Tally = SweepSummary;  // the decide pass tallies the leaves
  struct Walker {
    const LeafSource& source;
    std::size_t leaf;
    void head(Unit&) const {}
    ReplicaSample replica(std::size_t) const { return {}; }
    void finish(Unit&, std::span<const ReplicaSample>, Tally&) const {}
    void render(const Unit&, std::string& arena) const {
      source.row(leaf, arena);
    }
    void next() { ++leaf; }
  };

  Walker walk(std::size_t leaf) const { return {*this, leaf}; }

  LeafRow row;
  std::size_t row_bytes = 0;
};

/// The full cell (column prefix included) that Row::number(value)
/// renders at `column` of `renderer`'s rows.
std::string number_cell(const RowRenderer& renderer, std::size_t column,
                        double value) {
  std::string cell;
  RowRenderer::Row row(renderer, cell);
  row.cells_verbatim({}, column);  // skip to `column`, emitting nothing
  row.number(value);
  return cell;
}

/// The cells of one generation's leaf rows that are pure functions of
/// the lattice, rendered once so that a leaf row formats only its
/// margin. A leaf of generation `depth` has its origin at fine index
/// t * ext (ext = scale >> depth) on axis j, t < boxes_j << depth; its
/// value cells go into the render plan's axis_tokens, indexed by t, for
/// render_grid_row's digits path, and its width cells are indexed by t
/// too. Widths are keyed by the origin, not by the depth alone: on an
/// unevenly spaced lattice, and through rounding on an even one, boxes
/// of one depth differ in width.
struct LeafTokens {
  /// widths[j][t]: axis j's box_ext cell.
  std::vector<std::vector<std::string>> widths;
  /// The box_depth and box_uniform cells, indexed by box_uniform.
  std::string tails[2];
};

/// Builds generation `depth`'s tokens on the pool: the value cells into
/// plan.axis_tokens, the rest into `tokens`. Returns false, building
/// nothing, when an axis table would hold more entries than the
/// generation's `num_leaves` leaves: those few leaves are formatted
/// instead, so a deep run never tokenizes millions of coordinates for a
/// handful of rows.
bool build_leaf_tokens(ThreadPool& pool, const AdaptiveLattice& lat,
                       int depth, std::size_t num_leaves,
                       GridRenderPlan& plan, LeafTokens& tokens) {
  const std::size_t d = lat.axes.size();
  std::array<std::size_t, kMaxAdaptiveAxes + 1> table_begin{};
  for (std::size_t j = 0; j < d; ++j) {
    const std::uint64_t entries = lat.boxes[j] << depth;
    if (entries > num_leaves) return false;
    table_begin[j + 1] = table_begin[j] + entries;
  }
  const RowRenderer& renderer = plan.renderer;
  // Axis j's render column, and the box_depth column (the box block
  // closes the row).
  std::array<std::size_t, kMaxAdaptiveAxes> value_columns{};
  for (const GridRenderPlan::RenderSegment& seg : plan.segments) {
    for (std::size_t j = 0; j < d; ++j) {
      if (seg.cells == 0 && seg.axis == lat.axes[j]) {
        value_columns[j] = 1 + seg.field;
      }
    }
  }
  const std::size_t box_column = renderer.num_columns() - 2 - d;
  tokens.widths.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    const std::size_t entries = table_begin[j + 1] - table_begin[j];
    plan.axis_tokens[lat.axes[j]].resize(entries);
    tokens.widths[j].resize(entries);
  }
  const std::uint64_t ext = lat.scale >> depth;
  const auto build = [&](std::size_t, std::size_t begin, std::size_t end) {
    std::size_t j = 0;
    for (std::size_t e = begin; e < end; ++e) {
      while (e >= table_begin[j + 1]) ++j;
      const std::size_t t = e - table_begin[j];
      const std::uint64_t origin = t * ext;
      plan.axis_tokens[lat.axes[j]][t] = number_cell(
          renderer, value_columns[j], lat.vertex_value(j, origin));
      tokens.widths[j][t] = number_cell(renderer, box_column + 2 + j,
                                        lat.width(j, origin, ext));
    }
  };
  for_box_blocks(pool, table_begin[d], build);
  for (const int uniform : {0, 1}) {
    std::string& tail = tokens.tails[uniform];
    tail.clear();
    RowRenderer::Row row(renderer, tail);
    row.cells_verbatim({}, box_column);
    row.number(depth);
    row.number(uniform);
  }
  return true;
}

}  // namespace

AdaptiveOptions parse_adaptive(const std::string& spec) {
  AdaptiveOptions adaptive;
  const auto colon = spec.find(':');
  const std::string depth_token =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  const double depth = parse_number(
      depth_token, spec, /*allow_inf=*/false,
      "adaptive spec must look like depth or depth:tol, e.g. 4 or 5:0.01");
  P2P_ASSERT_MSG(depth >= 0 && depth <= kMaxAdaptiveDepth &&
                     depth == std::floor(depth),
                 "adaptive depth must be an integer in [0, " +
                     std::to_string(kMaxAdaptiveDepth) + "] (got \"" + spec +
                     "\")");
  adaptive.max_depth = static_cast<int>(depth);
  if (colon != std::string::npos) {
    adaptive.tol = parse_number(
        spec.substr(colon + 1), spec, /*allow_inf=*/false,
        "adaptive spec must look like depth or depth:tol, e.g. 4 or 5:0.01");
    P2P_ASSERT_MSG(adaptive.tol >= 0,
                   "adaptive tolerance must be nonnegative (got \"" + spec +
                       "\")");
    // -0 passes the check above but would echo as "-0" in the stderr
    // line and the --summary archive: a zero tolerance is +0.
    if (adaptive.tol == 0) adaptive.tol = 0;
  }
  return adaptive;
}

std::vector<std::string> adaptive_axes(const SweepGrid& grid) {
  const SweepGrid effective = effective_grid(grid);
  std::vector<std::string> out;
  for (const Axis& axis : effective.axes) {
    if (axis.values.size() >= 2) out.push_back(axis.name);
  }
  return out;
}

std::vector<std::string> adaptive_columns(const SweepGrid& grid,
                                          const SweepOptions& options) {
  std::vector<std::string> columns = sweep_columns(options);
  columns.push_back(kBoxDepthColumn);
  columns.push_back(kBoxUniformColumn);
  for (const std::string& name : adaptive_axes(grid)) {
    columns.push_back(kBoxExtPrefix + name);
  }
  return columns;
}

AdaptiveSummary run_adaptive_stream(const SweepGrid& grid,
                                    const SweepOptions& options,
                                    const AdaptiveOptions& adaptive,
                                    ReportWriter& writer) {
  const AdaptiveLattice lat = make_lattice(grid, options, adaptive);
  P2P_ASSERT_MSG(writer.columns() == adaptive_columns(grid, options),
                 "adaptive writer must be constructed with adaptive_columns()");

  AdaptiveSummary summary;
  summary.dense_equivalent = lat.dense_equivalent;
  const std::size_t d = lat.axes.size();
  const std::size_t corners = std::size_t{1} << d;
  const std::size_t all = corners - 1;  // the corner with every axis set
  ThreadPool pool(options.threads);

  // A (sub)box is its origin (lower-corner) vertex key. Generation g
  // holds the boxes of depth g, whose fine extent is scale >> g on every
  // axis, so the center vertex exists exactly while g < max_depth.
  // Generation 0: the coarse boxes, row-major over the per-axis box
  // counts (last adaptive axis fastest) — the enumeration order a dense
  // sweep over the coarse lattice uses.
  Scratch<Box> current;
  {
    std::size_t total = 1;
    for (const std::uint64_t nb : lat.boxes) total *= nb;
    current.resize(total);
    for_box_blocks(pool, total,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t b = begin; b < end; ++b) {
                       std::uint64_t rest = b, key = 0;
                       for (std::size_t j = d; j-- > 0;) {
                         key += (rest % lat.boxes[j]) * lat.scale *
                                lat.strides[j];
                         rest /= lat.boxes[j];
                       }
                       current[b] = {key, 0, 0};
                     }
                   });
  }
  // Key offsets of the 2^d corners of a box with fine extent `step`:
  // corner c shifts axis j by step when bit (d - 1 - j) of c is set.
  // Corners at ext / 2 are the children's origins; the last is the
  // parent's center.
  const auto corner_offsets = [&](std::uint64_t step) {
    std::array<std::uint64_t, std::size_t{1} << kMaxAdaptiveAxes> offsets{};
    for (std::size_t c = 0; c < corners; ++c) {
      for (std::size_t j = 0; j < d; ++j) {
        if (((c >> (d - 1 - j)) & 1) != 0) offsets[c] += step * lat.strides[j];
      }
    }
    return offsets;
  };

  GridRenderPlan plan = make_grid_render_plan(lat.effective, options, writer);
  LeafTokens tokens;
  VertexStore store(/*with_sims=*/!options.theory_only ||
                    options.ctmc_max_peers > 0);
  // Per-slot theory verdicts, the only vertex field the decide phase
  // reads, packed densely instead of at VertexRecord's stride.
  Scratch<Stability> verdicts;
  Scratch<Slot> box_slots;
  std::vector<std::size_t> shard_at;
  Scratch<Candidate> candidates;
  Scratch<std::uint8_t> decisions;
  std::vector<BlockTally> tallies;
  Scratch<std::size_t> leaves;
  Scratch<Box> next;
  std::atomic<std::size_t> escalated{0};

  // Every generation runs four phases, each on the pool; the caller only
  // adds up per-block and per-shard counts between the passes.
  //   plan     — give every box corner and center a slot. At depth >= 1
  //              a box is child p of a parent, and its corner c sits at
  //              parent offset (p + c) * ext: corner p is the parent's
  //              corner p, corner ~p the parent's center, and both are
  //              inherited. Its center (odd multiples of ext / 2) is new
  //              and its own: slot base + b. The other corners are edge
  //              and face midpoints of mixed parity in ext units, while
  //              every vertex of an earlier generation is all-even or
  //              all-odd, so they are new too and need deduplication
  //              only against this generation: they (and every corner at
  //              depth 0) are sharded by key hash, deduplicated per
  //              shard, and numbered shard by shard in box order;
  //   evaluate — workers construct the generation's block of new
  //              vertex records (and sidecars) in place;
  //   decide   — workers decide split / leaf / uniform per box and count
  //              per block; the blocks then place their leaves and the
  //              children (the next generation) at the counts' prefix;
  //   render   — workers render the generation's lattice tokens (axis
  //              values and box widths by origin coordinate), then the
  //              leaf rows from them through run_ordered_blocks, which
  //              hands the rows to the writer in leaf order.
  // Box order, leaf numbering and row bytes depend only on the grid: a
  // vertex's record is a pure function of its key, whatever its slot.
  for (int depth = 0; !current.empty(); ++depth) {
    const std::uint64_t ext = lat.scale >> depth;
    const bool centered = depth < adaptive.max_depth;
    const std::size_t stride = corners + (centered ? 1 : 0);
    const auto corner = corner_offsets(ext);
    const auto half = corner_offsets(ext / 2);
    const std::size_t boxes = current.size();
    const std::size_t blocks = (boxes + kBoxBlock - 1) / kBoxBlock;
    // Calls fn(at, key) for every shared corner of boxes [begin, end) in
    // box order: every corner at depth 0, and all but the two inherited
    // ones (c == p, c == ~p for child index p = b mod 2^d) later; `at` is
    // its box_slots index.
    const auto for_shared = [&](std::size_t begin, std::size_t end,
                                const auto& fn) {
      for (std::size_t b = begin; b < end; ++b) {
        for (std::size_t c = 0; c < corners; ++c) {
          if (depth > 0 && (c == (b & all) || c == (~b & all))) continue;
          fn(b * stride + c, current[b].key + corner[c]);
        }
      }
    };

    // Plan. Slots [0, 2^d) of a box are its corners, slot 2^d its center.
    // Count each block's shared corners per shard...
    shard_at.assign(blocks * kShards, 0);
    for_box_blocks(
        pool, boxes, [&](std::size_t blk, std::size_t begin, std::size_t end) {
          std::size_t* counts = &shard_at[blk * kShards];
          for_shared(begin, end, [&](std::size_t, std::uint64_t key) {
            ++counts[shard_of(key)];
          });
        });
    // ...turn the counts into each (block, shard)'s first candidate, so
    // a shard's candidates lie in block order, which is box order...
    std::array<std::size_t, kShards + 1> shard_begin{};
    std::size_t total = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      shard_begin[s] = total;
      for (std::size_t block = 0; block < blocks; ++block) {
        const std::size_t count = shard_at[block * kShards + s];
        shard_at[block * kShards + s] = total;
        total += count;
      }
    }
    shard_begin[kShards] = total;
    // ...scatter them there...
    candidates.clear();  // a regrow then copies nothing
    candidates.resize(total);
    for_box_blocks(
        pool, boxes, [&](std::size_t blk, std::size_t begin, std::size_t end) {
          std::size_t* next_at = &shard_at[blk * kShards];
          for_shared(begin, end, [&](std::size_t at, std::uint64_t key) {
            candidates[next_at[shard_of(key)]++] = {key, at};
          });
        });
    // ...and number each shard's distinct keys on its own.
    box_slots.clear();
    box_slots.resize(boxes * stride);
    std::array<std::size_t, kShards> distinct{};
    pool.parallel_for(
        kShards,
        [&](std::size_t s) {
          distinct[s] = dedupe_shard(
              std::span(candidates)
                  .subspan(shard_begin[s], shard_begin[s + 1] - shard_begin[s]),
              box_slots.data());
        },
        1);
    // The new vertices take slots base + i: the centers in box order,
    // then each shard's distinct shared corners.
    const std::size_t base = store.size();
    const std::size_t centers = centered ? boxes : 0;
    std::array<std::size_t, kShards> shard_slot{};
    std::size_t fresh = centers;
    for (std::size_t s = 0; s < kShards; ++s) {
      shard_slot[s] = base + fresh;
      fresh += distinct[s];
    }
    P2P_ASSERT_MSG(base + fresh <= std::numeric_limits<Slot>::max(),
                   "adaptive refinement needs more vertices than a 32-bit "
                   "slot can number; lower the depth or coarsen the grid");
    for_box_blocks(
        pool, boxes, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t b = begin; b < end; ++b) {
            Slot* slots = &box_slots[b * stride];
            if (depth > 0) {
              slots[b & all] = current[b].corner;
              slots[~b & all] = current[b].center;
            }
            if (centered) slots[corners] = static_cast<Slot>(base + b);
          }
          for_shared(begin, end, [&](std::size_t at, std::uint64_t key) {
            box_slots[at] += static_cast<Slot>(shard_slot[shard_of(key)]);
          });
        });
    // A shard's distinct keys sit at the front of its candidates.
    const auto shared_key = [&](std::size_t slot) {
      const std::size_t s = static_cast<std::size_t>(
          std::upper_bound(shard_slot.begin(), shard_slot.end(), slot) -
          shard_slot.begin() - 1);
      return candidates[shard_begin[s] + (slot - shard_slot[s])].key;
    };

    // Evaluate.
    const VertexStore::Block block = store.add_block(fresh);
    verdicts.resize(base + fresh);
    pool.parallel_for(
        fresh,
        [&](std::size_t i) {
          const std::uint64_t key = i < centers ? current[i].key + half[all]
                                                : shared_key(base + i);
          const VertexRecord& v = *std::construct_at(
              block.records + i,
              evaluate_vertex(lat, options, adaptive, key,
                              block.sims == nullptr ? nullptr
                                                    : block.sims + i));
          verdicts[base + i] = static_cast<Stability>(v.verdict);
          if (v.escalated) ++escalated;
        },
        options.chunk);

    // Decide: subdivide into the 2^d children when the corner/center
    // verdicts disagree, unless the depth cap or the physical tolerance
    // stops it; otherwise the box is a leaf carrying its origin vertex.
    decisions.clear();
    decisions.resize(boxes);
    tallies.assign(blocks, BlockTally{});
    for_box_blocks(
        pool, boxes, [&](std::size_t blk, std::size_t begin, std::size_t end) {
          BlockTally& tally = tallies[blk];
          for (std::size_t b = begin; b < end; ++b) {
            const Slot* slots = &box_slots[b * stride];
            const Stability first = verdicts[slots[0]];
            bool uniform = true;
            for (std::size_t s = 1; s < stride; ++s) {
              if (verdicts[slots[s]] != first) uniform = false;
            }
            bool split = !uniform && centered;
            if (split && adaptive.tol > 0) {
              const Coords g = lat.coords(current[b].key);
              bool within_tol = true;
              for (std::size_t j = 0; j < d; ++j) {
                if (lat.width(j, g[j], ext) > adaptive.tol) within_tol = false;
              }
              if (within_tol) split = false;
            }
            decisions[b] = static_cast<std::uint8_t>(
                (split ? kSplit : 0) | (uniform ? kUniform : 0));
            if (split) {
              ++tally.splits;
            } else {
              ++tally.leaves;
              tally_verdict(tally, first);
            }
          }
        });
    const std::size_t first_leaf = summary.boxes;
    std::size_t num_leaves = 0, num_children = 0;
    for (BlockTally& tally : tallies) {
      tally.first_leaf = num_leaves;
      tally.first_child = num_children;
      num_leaves += tally.leaves;
      num_children += tally.splits * corners;
      summary.stable += tally.stable;
      summary.transient += tally.transient;
      summary.borderline += tally.borderline;
    }
    leaves.clear();
    leaves.resize(num_leaves);
    next.clear();
    next.resize(num_children);
    for_box_blocks(
        pool, boxes, [&](std::size_t blk, std::size_t begin, std::size_t end) {
          std::size_t leaf = tallies[blk].first_leaf;
          std::size_t child = tallies[blk].first_child;
          for (std::size_t b = begin; b < end; ++b) {
            if ((decisions[b] & kSplit) == 0) {
              leaves[leaf++] = b;
              continue;
            }
            const Slot* slots = &box_slots[b * stride];
            for (std::size_t c = 0; c < corners; ++c) {
              next[child++] = {current[b].key + half[c], slots[c],
                               slots[corners]};
            }
          }
        });
    if (num_leaves > 0) {
      summary.boxes += num_leaves;
      summary.max_depth_reached = depth;
    }

    // Render. A leaf's axis values and widths come from its origin key:
    // through the generation's tokens, or formatted when the generation
    // is too deep for its few leaves to pay for a table.
    const bool tokenized =
        num_leaves > 0 &&
        build_leaf_tokens(pool, lat, depth, num_leaves, plan, tokens);
    const int shift = lat.depth_bits - depth;  // origin g = t << shift
    const auto render_leaf = [&](std::size_t i, std::string& arena) {
      thread_local std::vector<double> values;
      thread_local std::vector<std::size_t> digits;
      const std::size_t b = leaves[i];
      const Coords g = lat.coords(current[b].key);
      const auto [v, sim] = store[box_slots[b * stride]];
      CellResult cell = leaf_cell(first_leaf + i, *v, sim);
      // Tokenized, render_grid_row reads the axis fields only for the
      // per-type arrival-rate columns.
      if (!tokenized || !options.scenario.empty()) {
        set_axis_fields(cell, lat.params(g, values, options.scenario.policy));
      }
      if (tokenized) {
        digits.resize(lat.effective.axes.size());
        for (std::size_t j = 0; j < d; ++j) {
          digits[lat.axes[j]] = g[j] >> shift;
        }
      }
      const bool uniform = (decisions[b] & kUniform) != 0;
      RowRenderer::Row row(plan.renderer, arena);
      render_grid_row(plan, options, tokenized ? &digits : nullptr, cell, row);
      if (tokenized) {
        row.cells_verbatim(tokens.tails[uniform ? 1 : 0], 2);
        for (std::size_t j = 0; j < d; ++j) {
          row.cells_verbatim(tokens.widths[j][g[j] >> shift], 1);
        }
      } else {
        row.number(static_cast<double>(depth));
        row.number(uniform ? 1 : 0);
        for (std::size_t j = 0; j < d; ++j) {
          row.number(lat.width(j, g[j], ext));
        }
      }
      row.end();
    };
    run_ordered_blocks(pool, num_leaves, 1, options.chunk,
                       LeafSource{render_leaf}, &writer, nullptr);
    current.swap(next);
  }

  summary.evaluated = store.size();
  summary.simulated = options.theory_only ? 0 : store.size();
  summary.escalated = escalated.load();
  return summary;
}

}  // namespace p2p::engine
