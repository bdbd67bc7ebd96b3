#include "engine/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
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
  /// The cell index: format_number's bytes for it, straight from the
  /// integer.
  void index(std::uint64_t index) {
    const std::string& prefix = renderer_.prefix(cells_);
    end_ = std::copy(prefix.begin(), prefix.end(), end_);
    end_ = format_integer_to(end_, index);
    ++cells_;
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

/// Validates a grid or frontier run and returns its effective grid. A
/// run that simulates on a forced backend must never silently change
/// the law: it aborts up front, naming the offending axis, instead of
/// running out-of-domain cells on the wrong simulator (kAuto falls back
/// per cell instead).
SweepGrid checked_effective_grid(const SweepGrid& grid,
                                 const SweepOptions& options,
                                 bool simulates) {
  validate_caller_axes(grid);
  validate_options(options);
  SweepGrid effective = effective_grid(grid);
  validate_effective_axes(effective, options);
  if (simulates && options.sim_backend == SimBackend::kTypeCount) {
    const std::string violation =
        typecount_domain_violation(effective, options.scenario);
    P2P_ASSERT_MSG(violation.empty(), violation);
  }
  return effective;
}

/// The grid sweep as a run_ordered_blocks source: a unit is a cell, its
/// items are the cell's replicas.
struct GridSource {
  using Unit = CellResult;
  using Tally = SweepSummary;

  /// Walks consecutive cells with an odometer (last axis fastest): one
  /// div/mod chain at construction, a carry-propagating increment per
  /// cell, and a reused arrival buffer, so the theory-only path
  /// allocates nothing per cell. finish and render run on whichever
  /// worker completes the cell; the seeds and bytes depend only on the
  /// cell index.
  class Walker {
   public:
    Walker(const GridSource& source, std::size_t cell)
        : s_(source), cell_(cell), digits_(source.grid.axes.size()) {
      std::vector<double> values(digits_.size());
      for (std::size_t i = digits_.size(), rem = cell; i-- > 0;) {
        const std::vector<double>& vals = s_.grid.axes[i].values;
        digits_[i] = rem % vals.size();
        values[i] = vals[digits_[i]];
        rem /= vals.size();
      }
      p_ = cell_params(s_.slots, values, s_.options.scenario.policy);
    }
    void head(CellResult& r) {
      fill_cell(r, cell_, p_, s_.options, arrivals_);
    }
    ReplicaSample replica(std::size_t r) const {
      if (s_.options.theory_only) return {};
      return simulate_replica(
          p_, s_.options,
          derive_seed(s_.options.base_seed, kStreamCellSim, cell_, r));
    }
    void finish(CellResult& r, std::span<const ReplicaSample> samples,
                SweepSummary& tally) const {
      if (!s_.options.theory_only) {
        Rng agg_rng(
            derive_seed(s_.options.base_seed, kStreamCellAgg, cell_, 0));
        r.sim = aggregate_samples(samples, s_.options, agg_rng);
      }
      tally_verdict(tally, r.theory.verdict);
    }
    void render(const CellResult& r, std::string& arena) const {
      RowRenderer::Row row(s_.plan.renderer, arena);
      render_grid_row(s_.plan, s_.options, &digits_, r, row);
      row.end();
    }
    /// Advances the odometer; only the parameters of the axes whose
    /// digit moved are rewritten (a pinned axis never moves).
    void next() {
      ++cell_;
      for (std::size_t i = digits_.size(); i-- > 0;) {
        const std::vector<double>& vals = s_.grid.axes[i].values;
        if (vals.size() == 1) continue;
        const bool carry = ++digits_[i] == vals.size();
        if (carry) digits_[i] = 0;
        set_cell_axis(p_, s_.slots, i, vals[digits_[i]]);
        if (!carry) break;
      }
    }

   private:
    const GridSource& s_;
    std::size_t cell_;
    std::vector<std::size_t> digits_;  // per-axis value indices
    CellParams p_;
    std::vector<ArrivalSpec> arrivals_;
  };

  Walker walk(std::size_t cell) const { return Walker(*this, cell); }

  const SweepGrid& grid;
  const SweepOptions& options;
  AxisSlots slots;
  const GridRenderPlan& plan;
  std::size_t row_bytes;
};

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

SweepSummary run_sweep_stream(const SweepGrid& grid,
                              const SweepOptions& options,
                              ReportWriter& writer) {
  P2P_ASSERT_MSG(writer.columns() == sweep_columns(options),
                 "run_sweep_stream writer must be built with "
                 "sweep_columns(options)");
  const SweepGrid effective =
      checked_effective_grid(grid, options, !options.theory_only);
  const GridRenderPlan plan = make_grid_render_plan(effective, options, writer);
  const GridSource source{effective, options, resolve_axis_slots(effective),
                          plan, plan.max_row_bytes};
  ThreadPool pool(options.threads);
  // Theory-only sweeps run one closed-form item per cell: fanning unused
  // replica items would just multiply claim traffic.
  SweepSummary summary = run_ordered_blocks(
      pool, effective.num_cells(),
      options.theory_only ? 1 : static_cast<std::size_t>(options.replicas),
      options.chunk, source, writer);
  summary.cells = effective.num_cells();
  return summary;
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
/// ~10 bisections deep for the price of one coarse cell. `slots` index
/// the row's values with the refined value appended.
FrontierPoint bisect_row(const SweepGrid& rows, const AxisSlots& slots,
                         std::size_t row, const Axis& refined,
                         const RefineOptions& refine,
                         const ScenarioSpec& scenario) {
  std::vector<double> values = rows.cell_values(row);
  values.push_back(0);
  const auto params_at = [&](double v) {
    values.back() = v;
    return cell_params(slots, values, scenario.policy);
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

/// Renders one localized frontier point into `arena`: the one frontier
/// row encoder.
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

/// The frontier as a run_ordered_blocks source: a unit is a row, its
/// items are the replicas at the row's localized point. Each block
/// re-runs the closed-form bisection once per row it touches instead of
/// publishing it across blocks: the bisection is a deterministic
/// handful of classify() calls, cheap next to one replica simulation.
/// Unbracketed rows skip the simulation entirely. Seeds key on the row
/// index, so adding an unbracketed row elsewhere in the grid never
/// shifts another row's streams.
struct FrontierSource {
  using Unit = FrontierPoint;
  using Tally = std::size_t;  // bracketed rows

  class Walker {
   public:
    Walker(const FrontierSource& source, std::size_t row)
        : s_(source), row_(row), pt_(source.bisect(row)) {}
    void head(FrontierPoint& pt) const { pt = pt_; }
    ReplicaSample replica(std::size_t r) const {
      if (!pt_.bracketed) return {};
      return simulate_replica(
          pt_.params, s_.options,
          derive_seed(s_.options.base_seed, kStreamFrontierSim, row_, r));
    }
    void finish(FrontierPoint& pt, std::span<const ReplicaSample> samples,
                std::size_t& bracketed) const {
      if (!pt.bracketed) return;
      Rng agg_rng(
          derive_seed(s_.options.base_seed, kStreamFrontierAgg, row_, 0));
      pt.sim = aggregate_samples(samples, s_.options, agg_rng);
      ++bracketed;
    }
    void render(const FrontierPoint& pt, std::string& arena) const {
      render_frontier_row(s_.renderer, pt, s_.refine, s_.options, arena);
    }
    void next() { pt_ = s_.bisect(++row_); }

   private:
    const FrontierSource& s_;
    std::size_t row_;
    FrontierPoint pt_;
  };

  Walker walk(std::size_t row) const { return Walker(*this, row); }
  FrontierPoint bisect(std::size_t row) const {
    return bisect_row(rows, slots, row, refined, refine, options.scenario);
  }

  /// The effective grid without the refined axis, and the slots of its
  /// values with the refined value appended.
  const SweepGrid& rows;
  AxisSlots slots;
  const Axis& refined;
  const RefineOptions& refine;
  const SweepOptions& options;
  const RowRenderer& renderer;
  std::size_t row_bytes = 0;
};

}  // namespace

FrontierSummary run_frontier_stream(const SweepGrid& grid,
                                    const SweepOptions& options,
                                    const RefineOptions& refine,
                                    ReportWriter& writer) {
  P2P_ASSERT_MSG(writer.columns() == frontier_columns(options),
                 "run_frontier_stream writer must be built with "
                 "frontier_columns(options)");
  // Frontier points always simulate.
  const SweepGrid effective =
      checked_effective_grid(grid, options, /*simulates=*/true);
  P2P_ASSERT_MSG(refinable_axis(refine.axis),
                 "refine axis must be one of lambda, us, mu, gamma, mix");
  // The frontier's whole point is simulating at the localized flip;
  // accepting theory_only here would silently skip those sims while the
  // table still advertises replica columns.
  P2P_ASSERT_MSG(!options.theory_only,
                 "theory_only applies to grid sweeps, not frontier runs");
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
  SweepGrid layout = rows;
  layout.axes.push_back(Axis{refine.axis, {}});
  const RowRenderer renderer(writer.format(), writer.columns());
  const FrontierSource source{rows, resolve_axis_slots(layout), *refined,
                              refine, options, renderer};
  ThreadPool pool(options.threads);
  const std::size_t bracketed = run_ordered_blocks(
      pool, rows.num_cells(), static_cast<std::size_t>(options.replicas),
      options.chunk, source, writer);
  return {rows.num_cells(), bracketed};
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

}  // namespace p2p::engine
