#include "engine/refine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/cell_eval.hpp"
#include "engine/parse_util.hpp"
#include "engine/thread_pool.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace p2p::engine {

namespace {

/// 2^d corner evaluations per box; past six dimensions the corner count
/// alone (64/box) erases the adaptive savings and the volume should be
/// sliced instead.
constexpr std::size_t kMaxAdaptiveAxes = 6;
constexpr int kMaxAdaptiveDepth = 20;

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
  std::uint64_t scale = 1;  // 2^max_depth fine steps per coarse box
  /// Per adaptive axis: coarse box count, fine vertex count
  /// (boxes * scale + 1), and the row-major key stride.
  std::vector<std::uint64_t> boxes;
  std::vector<std::uint64_t> dims;
  std::vector<std::uint64_t> strides;
  std::size_t dense_equivalent = 1;

  /// Fine index on adaptive axis j of the vertex with this key.
  std::uint64_t coord(std::uint64_t key, std::size_t j) const {
    return (key / strides[j]) % dims[j];
  }

  double vertex_value(std::size_t j, std::uint64_t g) const {
    const std::vector<double>& vals = effective.axes[axes[j]].values;
    const std::uint64_t ci = g / scale;
    const std::uint64_t f = g % scale;
    if (f == 0) return vals[ci];
    return vals[ci] + (vals[ci + 1] - vals[ci]) *
                          (static_cast<double>(f) / static_cast<double>(scale));
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

/// One evaluated lattice vertex: the full cell classification plus
/// whether the CI-straddle escalation ran extra replica rounds here.
struct VertexResult {
  CellResult cell;
  bool escalated = false;
};

/// Classifies (and, unless theory_only, simulates) one vertex. Replica
/// seeds are (base_seed, kStreamAdaptiveSim, key, replica index) and each
/// aggregation round draws its bootstrap from (base_seed,
/// kStreamAdaptiveAgg, key, round): pure functions of the vertex, so the
/// result is identical no matter which thread — or which generation —
/// evaluates it.
void evaluate_vertex(const AdaptiveLattice& lat, const SweepOptions& options,
                     const AdaptiveOptions& adaptive, std::uint64_t key,
                     VertexResult& out) {
  thread_local std::vector<double> values;
  thread_local std::vector<ArrivalSpec> arrival_scratch;
  thread_local std::vector<ReplicaSample> samples;
  values = lat.base_values;
  for (std::size_t j = 0; j < lat.axes.size(); ++j) {
    values[lat.axes[j]] = lat.vertex_value(j, lat.coord(key, j));
  }
  const CellParams p = cell_params(lat.slots, values, options.scenario.policy);
  fill_cell(out.cell, /*cell=*/0, p, options, arrival_scratch);
  out.escalated = false;
  if (options.theory_only) return;

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
    out.cell.sim = aggregate_samples(samples, options, agg_rng);
    if (round + 1 >= rounds) break;
    const double lo = out.cell.sim.mean_peers_lo;
    const double hi = out.cell.sim.mean_peers_hi;
    const bool straddles = std::isfinite(lo) && std::isfinite(hi) &&
                           lo <= adaptive.sim_threshold &&
                           adaptive.sim_threshold <= hi;
    if (!straddles) break;
    out.escalated = true;
  }
}

/// A vertex's position in evaluation order: its index into VertexStore.
using Slot = std::uint32_t;

/// Flat open-addressing index from vertex key to slot: linear probing
/// over a power-of-two table kept at most 3/4 full, Fibonacci-hashed.
/// Keys are never erased, and a new key gets the next slot.
class VertexIndex {
 public:
  VertexIndex() { rehash(1024); }

  std::size_t size() const { return size_; }

  /// The slot of `key`, first inserting it as slot size() when absent
  /// (`inserted` says which).
  Slot find_or_insert(std::uint64_t key, bool& inserted) {
    if (4 * (size_ + 1) > 3 * table_.size()) rehash(2 * table_.size());
    for (std::size_t i = bucket(key);; i = (i + 1) & mask_) {
      Entry& e = table_[i];
      if (e.key == key) {
        inserted = false;
        return e.slot;
      }
      if (e.key == kEmpty) {
        P2P_ASSERT_MSG(size_ < std::numeric_limits<Slot>::max(),
                       "adaptive refinement needs more vertices than a 32-bit "
                       "slot can number; lower the depth or coarsen the grid");
        e.key = key;
        e.slot = static_cast<Slot>(size_++);
        inserted = true;
        return e.slot;
      }
    }
  }

 private:
  /// No lattice key reaches it: keys lie below dense_equivalent, which
  /// make_lattice bounds by the u64 maximum.
  static constexpr std::uint64_t kEmpty =
      std::numeric_limits<std::uint64_t>::max();
  struct Entry {
    std::uint64_t key = kEmpty;
    Slot slot = 0;
  };

  std::size_t bucket(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void rehash(std::size_t capacity) {
    const std::vector<Entry> old =
        std::exchange(table_, std::vector<Entry>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Entry& e : old) {
      if (e.key == kEmpty) continue;
      std::size_t i = bucket(e.key);
      while (table_[i].key != kEmpty) i = (i + 1) & mask_;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
  std::size_t size_ = 0;
};

/// Evaluated vertices by slot, shared across generations: a vertex
/// introduced as one generation's edge midpoint is a later generation's
/// corner, and is never paid for twice. Each generation's new vertices
/// get one exactly sized block that never moves, so workers fill it in
/// place while earlier blocks stay readable.
class VertexStore {
 public:
  std::size_t size() const { return ends_.empty() ? 0 : ends_.back(); }

  /// Appends a block for slots [size(), size() + n).
  VertexResult* add_block(std::size_t n) {
    blocks_.push_back(std::make_unique<VertexResult[]>(n));
    ends_.push_back(size() + n);
    return blocks_.back().get();
  }

  const VertexResult& operator[](Slot slot) const {
    const std::size_t b = static_cast<std::size_t>(
        std::upper_bound(ends_.begin(), ends_.end(), slot) - ends_.begin());
    return blocks_[b][slot - (b == 0 ? 0 : ends_[b - 1])];
  }

 private:
  std::vector<std::unique_ptr<VertexResult[]>> blocks_;
  /// ends_[b]: one past block b's last slot.
  std::vector<std::size_t> ends_;
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
  using Tally = SweepSummary;  // the decide scan tallies the leaves
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
  const std::uint64_t corners = std::uint64_t{1} << d;

  // A (sub)box is its origin (lower-corner) vertex key. Generation g
  // holds the boxes of depth g, whose fine extent is scale >> g on every
  // axis, so the center vertex exists exactly while g < max_depth.
  // Generation 0: the coarse boxes, row-major over the per-axis box
  // counts (last adaptive axis fastest) — the enumeration order a dense
  // sweep over the coarse lattice uses.
  std::vector<std::uint64_t> current;
  {
    std::size_t total = 1;
    for (const std::uint64_t nb : lat.boxes) total *= nb;
    current.reserve(total);
    std::array<std::uint64_t, kMaxAdaptiveAxes> box{};
    for (std::size_t i = 0; i < total; ++i) {
      std::uint64_t key = 0;
      for (std::size_t j = 0; j < d; ++j) {
        key += box[j] * lat.scale * lat.strides[j];
      }
      current.push_back(key);
      for (std::size_t j = d; j-- > 0;) {
        if (++box[j] < lat.boxes[j]) break;
        box[j] = 0;
      }
    }
  }
  // Key offsets of the 2^d corners of a box with fine extent `step`:
  // corner c shifts axis j by step when bit (d - 1 - j) of c is set.
  // Corners at ext / 2 are the children's origins; the last is the
  // parent's center.
  const auto corner_offsets = [&](std::uint64_t step) {
    std::array<std::uint64_t, std::size_t{1} << kMaxAdaptiveAxes> offsets{};
    for (std::uint64_t c = 0; c < corners; ++c) {
      for (std::size_t j = 0; j < d; ++j) {
        if (((c >> (d - 1 - j)) & 1) != 0) offsets[c] += step * lat.strides[j];
      }
    }
    return offsets;
  };

  ThreadPool pool(options.threads);
  const GridRenderPlan plan =
      make_grid_render_plan(lat.effective, options, writer);
  VertexIndex index;
  VertexStore store;
  // Per-slot theory verdicts, the only vertex field the decide phase
  // reads, packed densely instead of at VertexResult's stride.
  std::vector<Stability> verdicts;
  std::vector<std::uint64_t> new_keys;
  std::vector<Slot> box_slots;
  std::vector<std::uint8_t> decisions;
  std::vector<std::size_t> leaves;
  std::vector<std::uint64_t> next;

  // Every generation runs four phases, and only the first and a linear
  // scan in the third are serial:
  //   plan     — resolve each box's corner and center keys to slots,
  //              appending first-seen keys (first-need order);
  //   evaluate — workers fill the generation's block of new vertices;
  //   decide   — workers decide split / leaf / uniform per box, then one
  //              scan in box order numbers the leaves, tallies them and
  //              appends the children (the next generation);
  //   render   — workers render the leaf rows through run_ordered_blocks,
  //              which hands them to the writer in leaf order.
  // Box order, leaf numbering and row bytes depend only on the grid.
  for (int depth = 0; !current.empty(); ++depth) {
    const std::uint64_t ext = lat.scale >> depth;
    const bool centered = depth < adaptive.max_depth;
    const std::size_t stride = corners + (centered ? 1 : 0);
    const auto corner = corner_offsets(ext);
    const auto half = corner_offsets(ext / 2);
    const auto width = [&](std::uint64_t box, std::size_t j) {
      const std::uint64_t g = lat.coord(box, j);
      return lat.vertex_value(j, g + ext) - lat.vertex_value(j, g);
    };

    // Plan: slots [0, 2^d) of a box are its corners, slot 2^d its center.
    new_keys.clear();
    box_slots.resize(current.size() * stride);
    for (std::size_t b = 0; b < current.size(); ++b) {
      for (std::size_t s = 0; s < stride; ++s) {
        const std::uint64_t key =
            current[b] + (s < corners ? corner[s] : half[corners - 1]);
        bool inserted = false;
        box_slots[b * stride + s] = index.find_or_insert(key, inserted);
        if (inserted) new_keys.push_back(key);
      }
    }

    // Evaluate.
    if (!new_keys.empty()) {
      const std::size_t base = store.size();
      VertexResult* block = store.add_block(new_keys.size());
      verdicts.resize(index.size());
      pool.parallel_for(
          new_keys.size(),
          [&](std::size_t i) {
            evaluate_vertex(lat, options, adaptive, new_keys[i], block[i]);
            verdicts[base + i] = block[i].cell.theory.verdict;
          },
          options.chunk);
      summary.escalated += static_cast<std::size_t>(
          std::count_if(block, block + new_keys.size(),
                        [](const VertexResult& v) { return v.escalated; }));
    }

    // Decide: subdivide into the 2^d children when the corner/center
    // verdicts disagree, unless the depth cap or the physical tolerance
    // stops it; otherwise the box is a leaf carrying its origin vertex.
    decisions.resize(current.size());
    pool.parallel_for(
        current.size(),
        [&](std::size_t b) {
          const Slot* slots = &box_slots[b * stride];
          const Stability first = verdicts[slots[0]];
          bool uniform = true;
          for (std::size_t s = 1; s < stride; ++s) {
            if (verdicts[slots[s]] != first) uniform = false;
          }
          bool split = !uniform && centered;
          if (split && adaptive.tol > 0) {
            bool within_tol = true;
            for (std::size_t j = 0; j < d; ++j) {
              if (width(current[b], j) > adaptive.tol) within_tol = false;
            }
            if (within_tol) split = false;
          }
          decisions[b] = static_cast<std::uint8_t>((split ? kSplit : 0) |
                                                   (uniform ? kUniform : 0));
        },
        options.chunk);
    const std::size_t first_leaf = summary.boxes;
    leaves.clear();
    next.clear();
    for (std::size_t b = 0; b < current.size(); ++b) {
      if ((decisions[b] & kSplit) != 0) {
        for (std::uint64_t c = 0; c < corners; ++c) {
          next.push_back(current[b] + half[c]);
        }
        continue;
      }
      leaves.push_back(b);
      tally_verdict(summary, verdicts[box_slots[b * stride]]);
    }
    if (!leaves.empty()) {
      summary.boxes += leaves.size();
      summary.max_depth_reached = depth;
    }

    // Render.
    const auto render_leaf = [&](std::size_t i, std::string& arena) {
      const std::size_t b = leaves[i];
      CellResult cell = store[box_slots[b * stride]].cell;
      cell.index = first_leaf + i;
      // Leaves lie off the coarse grid's digits: the axis cells come from
      // the vertex's own values.
      RowRenderer::Row row(plan.renderer, arena);
      render_grid_row(plan, options, /*digits=*/nullptr, cell, row);
      row.number(static_cast<double>(depth));
      row.number((decisions[b] & kUniform) != 0 ? 1 : 0);
      for (std::size_t j = 0; j < d; ++j) row.number(width(current[b], j));
      row.end();
    };
    run_ordered_blocks(pool, leaves.size(), 1, options.chunk,
                       LeafSource{render_leaf}, &writer, nullptr);
    current.swap(next);
  }

  summary.evaluated = store.size();
  summary.simulated = options.theory_only ? 0 : store.size();
  return summary;
}

}  // namespace p2p::engine
