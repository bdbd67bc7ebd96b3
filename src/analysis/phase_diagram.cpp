#include "analysis/phase_diagram.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>

#include "engine/csv_reader.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"
#include "util/number_format.hpp"

namespace p2p::analysis {

namespace {

using engine::CellParams;
using engine::ReportKind;
using engine::ReportSchema;

/// The axis columns, in grid-head order, taken from the writer's own
/// schema constants (column 0 of the head is the cell index; the axes
/// follow) — the same no-drift source the reader validates against.
std::span<const char* const> axis_names() {
  return engine::sweep_schema_head().subspan(1);
}
const std::size_t kNumAxes = axis_names().size();

std::size_t axis_index(const std::string& name) {
  for (std::size_t i = 0; i < kNumAxes; ++i) {
    if (name == axis_names()[i]) return i;
  }
  P2P_ASSERT_MSG(false, "unknown grid axis \"" + name +
                            "\" (valid: lambda, us, mu, gamma, k, eta, "
                            "flash, mix, hetero)");
  return kNumAxes;
}

double axis_value(const CellParams& p, std::size_t axis) {
  switch (axis) {
    case 0: return p.lambda;
    case 1: return p.us;
    case 2: return p.mu;
    case 3: return p.gamma;
    case 4: return static_cast<double>(p.k);
    case 5: return p.eta;
    case 6: return static_cast<double>(p.flash);
    case 7: return p.mix;
    case 8: return p.hetero;
  }
  P2P_ASSERT(false);
  return 0;
}

void set_refinable(CellParams& p, const std::string& name, double v) {
  if (name == "lambda") {
    p.lambda = v;
  } else if (name == "us") {
    p.us = v;
  } else if (name == "mu") {
    p.mu = v;
  } else if (name == "gamma") {
    p.gamma = v;
  } else if (name == "mix") {
    p.mix = v;
  } else {
    P2P_ASSERT_MSG(false, "axis \"" + name + "\" is not refinable");
  }
}

/// A row that failed a check, carried as its message to the thread that
/// owns row order instead of aborting where it was found: ingestion
/// aborts with the earliest failing row's message, whichever thread
/// decoded it.
struct RowError {
  std::string message;
};

/// Per-row check: `msg` is built only when `expr` fails.
#define P2P_ROW_CHECK(expr, msg)       \
  do {                                 \
    if (!(expr)) throw RowError{msg};  \
  } while (false)

/// One report row's cells plus its lazily built error context
/// ("grid report row 7"), so a clean row allocates nothing.
class RowCells {
 public:
  RowCells(std::span<const std::string_view> cells, const char* report,
           std::size_t r)
      : cells_(cells), report_(report), r_(r) {}

  std::size_t index() const { return r_; }
  std::string_view operator[](std::size_t col) const { return cells_[col]; }
  std::string context() const {
    return std::string(report_) + " report row " + std::to_string(r_);
  }

  double num(std::size_t col) const {
    double v = 0;
    P2P_ROW_CHECK(engine::parse_report_number(cells_[col], &v),
                  engine::report_number_error(cells_[col], context()));
    return v;
  }

  Stability verdict(std::size_t col) const {
    for (const Stability v : {Stability::kPositiveRecurrent,
                              Stability::kTransient,
                              Stability::kBorderline}) {
      if (cells_[col] == to_string(v)) return v;
    }
    throw RowError{"unknown verdict \"" + std::string(cells_[col]) +
                   "\" in " + context()};
  }

 private:
  std::span<const std::string_view> cells_;
  const char* report_;
  std::size_t r_;
};

/// Exact-match value -> first-appearance index, tolerating +-0.0
/// aliasing. Axis values come verbatim from the emitting grid, so
/// equality — not tolerance — is the right notion of "same coarse
/// value".
class ValueIndex {
 public:
  /// Returns the value's index, inserting it if new. values_ holds
  /// distinct values, so any slot equal to v is v's index: the last hit
  /// and its successor (a slow axis repeating, a fast axis stepping or
  /// wrapping) are probed before the hash.
  std::size_t insert(double v) {
    if (!values_.empty()) {
      if (values_[last_] == v) return last_;
      const std::size_t next = last_ + 1 < values_.size() ? last_ + 1 : 0;
      if (values_[next] == v) return last_ = next;
    }
    const auto [it, inserted] = map_.try_emplace(key(v), values_.size());
    if (inserted) values_.push_back(v);
    return last_ = it->second;
  }
  /// Index of an already-inserted value.
  std::size_t at(double v) const { return map_.at(key(v)); }
  std::size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

 private:
  static double key(double v) { return v == 0 ? 0.0 : v; }
  std::unordered_map<double, std::size_t> map_;
  std::vector<double> values_;
  std::size_t last_ = 0;
};

/// Cells per block of the pooled cell scans (the row-major check and
/// verdict_agreement's tallies): fixed, so how the cells are cut does
/// not depend on the thread count.
constexpr std::size_t kCellBlock = std::size_t{1} << 14;

/// a == b up to fp noise from reconstructing products out of their
/// archived factors (division + multiplication round-trips).
bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// The parameter head every grid row starts with (cell index first,
/// then the axes in schema order). `k_raw`/`flash_raw` keep the
/// unrounded integer axes for callers that check them.
CellParams decode_params(const RowCells& row, double* k_raw,
                         double* flash_raw) {
  CellParams p;
  p.lambda = row.num(1);
  p.us = row.num(2);
  p.mu = row.num(3);
  p.gamma = row.num(4);
  *k_raw = row.num(5);
  p.k = static_cast<int>(std::lround(*k_raw));
  p.eta = row.num(6);
  *flash_raw = row.num(7);
  p.flash = std::llround(*flash_raw);
  p.mix = row.num(8);
  p.hetero = row.num(9);
  return p;
}

int decode_replicas(const RowCells& row, std::size_t col) {
  const double raw = row.num(col);
  const int replicas = static_cast<int>(std::lround(raw));
  P2P_ROW_CHECK(replicas >= 0 && std::abs(raw - replicas) < 1e-9,
                "replicas must be a nonnegative integer (" + row.context() +
                    ")");
  return replicas;
}

/// Column positions of a validated grid report, and the one-row decoder
/// build_phase_grid runs on whichever thread holds the row. Every check
/// that reads only the row (and its index) runs here, in one fixed
/// order, so a row with several faults always reports the same one.
struct GridRowDecoder {
  explicit GridRowDecoder(const ReportSchema& schema)
      : tail(schema.tail_start),
        block(engine::sweep_schema_head().size()),
        block_width(schema.has_scenario ? schema.mix_types.size() + 1 : 0) {
    // Optional trailing columns sit after the fixed tail, in the order
    // the writer appends them: sim_backend, policy, fluid_verdict. Their
    // positions depend on which are present, so derive them from the
    // schema flags instead of fixed offsets.
    std::size_t opt = tail + engine::sweep_schema_tail().size();
    if (schema.has_backend) ++opt;
    has_policy = schema.has_policy;
    policy_col = has_policy ? opt++ : 0;
    has_fluid = schema.has_fluid;
    fluid_col = has_fluid ? opt : 0;
  }

  /// Decodes row r into `c` and its per-type block (block_width doubles)
  /// into `type_cols`; throws RowError on the first failed check.
  void decode(const RowCells& row, PhaseCell& c, double* type_cols) const {
    const std::size_t r = row.index();
    P2P_ROW_CHECK(row.num(0) == static_cast<double>(r),
                  "grid report cell indices must run 0..n-1 in row order "
                  "(" + row.context() + " has cell " + std::string(row[0]) +
                      ")");
    double k_raw = 0, flash_raw = 0;
    c.params = decode_params(row, &k_raw, &flash_raw);
    const CellParams& p = c.params;
    const auto ctx = [&] { return " (" + row.context() + ")"; };
    P2P_ROW_CHECK(std::isfinite(p.lambda) && p.lambda > 0,
                  "lambda must be a positive finite number" + ctx());
    P2P_ROW_CHECK(std::isfinite(p.us) && p.us >= 0,
                  "us must be a nonnegative finite number" + ctx());
    P2P_ROW_CHECK(std::isfinite(p.mu) && p.mu > 0,
                  "mu must be a positive finite number" + ctx());
    P2P_ROW_CHECK(p.gamma > 0,  // inf allowed
                  "gamma must be positive" + ctx());
    P2P_ROW_CHECK(p.k >= 1 && std::abs(k_raw - p.k) < 1e-9,
                  "k must be a positive integer" + ctx());
    P2P_ROW_CHECK(std::isfinite(p.eta) && p.eta >= 1,
                  "eta must be >= 1" + ctx());
    P2P_ROW_CHECK(
        p.flash >= 0 &&
            std::abs(flash_raw - static_cast<double>(p.flash)) < 1e-9,
        "flash must be a nonnegative integer" + ctx());
    P2P_ROW_CHECK(p.mix >= 0 && p.mix <= 1, "mix must lie in [0, 1]" + ctx());
    P2P_ROW_CHECK(p.hetero >= 0 && p.hetero < 1,
                  "hetero must lie in [0, 1)" + ctx());

    c.verdict = row.verdict(tail);
    c.margin = row.num(tail + 1);
    c.replicas = decode_replicas(row, tail + 3);
    c.sim_mean_peers = row.num(tail + 5);
    c.ctmc_mean_peers = row.num(tail + 10);
    if (has_policy) {
      // The policy is a sweep-level constant, so every row must repeat
      // one token — and it must be a token the writer can emit. Later
      // rows compare against row 0's token (policy0); whenever row 0 is
      // itself malformed its own error is the earlier one.
      const std::string_view tok = row[policy_col];
      if (r == 0) {
        bool known = false;
        for (const PolicyKind kind :
             {PolicyKind::kRandomUseful, PolicyKind::kRarestFirst,
              PolicyKind::kMostCommonFirst, PolicyKind::kSequential}) {
          if (tok == to_string(kind)) known = true;
        }
        P2P_ROW_CHECK(known, "unknown policy \"" + std::string(tok) +
                                 "\" in " + row.context());
      } else {
        P2P_ROW_CHECK(tok == policy0,
                      "the policy column must be constant over the grid "
                      "(" + row.context() + " has \"" + std::string(tok) +
                          "\", row 0 had \"" + policy0 + "\")");
      }
    }
    if (has_fluid) c.fluid = row.verdict(fluid_col);
    for (std::size_t i = 0; i < block_width; ++i) {
      type_cols[i] = row.num(block + i);
    }
  }

  std::size_t tail, block, block_width;
  bool has_policy = false, has_fluid = false;
  std::size_t policy_col = 0, fluid_col = 0;
  /// Row 0's policy cell, read ahead so every row can be checked alone.
  std::string policy0;
};

/// Constructs `slot` and decodes row `row` into it and its per-type
/// block, and records its axis values (first appearance decides their
/// index). `slot` is raw storage (GridRows::grow leaves it unconstructed),
/// so the decoding thread is the one that first writes its pages.
void decode_row(const GridRowDecoder& decoder, const RowCells& row,
                PhaseCell* slot, double* type_cols,
                std::vector<ValueIndex>& axes) {
  PhaseCell& c = *std::construct_at(slot);
  decoder.decode(row, c, type_cols);
  for (std::size_t a = 0; a < kNumAxes; ++a) {
    axes[a].insert(axis_value(c.params, a));
  }
}

/// The typed rows of one ingestion, in row order: cells, their per-type
/// blocks, and the first-appearance index of every axis.
struct GridRows {
  PhaseCells cells;  // moved whole into PhaseGrid::cells when row-major
  std::vector<double> type_cols;  // row-major per-type blocks
  std::vector<ValueIndex> axis_values = std::vector<ValueIndex>(kNumAxes);

  /// Makes room for `more` rows. The new cells are left unconstructed
  /// (PhaseCells' resize contract): decode_row constructs each one on the
  /// thread that decodes it.
  void grow(std::size_t more, std::size_t block_width) {
    cells.resize(cells.size() + more);
    type_cols.resize(cells.size() * block_width);
  }
  /// True when `more` rows fit the reserved storage, so growing moves
  /// no cell.
  bool fits(std::size_t more, std::size_t block_width) const {
    const std::size_t n = cells.size() + more;
    return n <= cells.capacity() && n * block_width <= type_cols.capacity();
  }
  /// Folds in the axis values a later run of rows saw, in their order:
  /// values new to the grid keep their first-appearance order.
  void merge(const std::vector<ValueIndex>& later) {
    for (std::size_t a = 0; a < kNumAxes; ++a) {
      for (const double v : later[a].values()) axis_values[a].insert(v);
    }
  }
};

ReportSchema grid_schema(const std::vector<std::string>& columns) {
  const ReportSchema schema = engine::validate_report_schema(columns);
  P2P_ASSERT_MSG(schema.kind == ReportKind::kGrid,
                 "phase grids are built from grid reports, not frontier "
                 "tables (header starts with \"row\")");
  return schema;
}

/// Everything after typed ingestion: axis selection, tiling into
/// row-major [y][x] slots, and scenario reconstruction from the per-type
/// block.
PhaseGrid assemble_phase_grid(const ReportSchema& schema, GridRows rows,
                              const std::string& policy,
                              const std::string& x_req,
                              const std::string& y_req,
                              engine::ThreadPool& pool) {
  const std::size_t n = rows.cells.size();
  P2P_ASSERT_MSG(n >= 1, "grid report has no rows");
  const std::vector<ValueIndex>& axis_values = rows.axis_values;

  // --- Axis selection ---
  std::vector<std::size_t> varying;
  for (std::size_t a = 0; a < kNumAxes; ++a) {
    if (axis_values[a].size() > 1) varying.push_back(a);
  }

  PhaseGrid grid;
  grid.policy = policy;
  grid.has_fluid = schema.has_fluid;
  std::size_t xi_axis = kNumAxes, yi_axis = kNumAxes;
  if (x_req.empty() && y_req.empty()) {
    P2P_ASSERT_MSG(!varying.empty(),
                   "no axis varies in the grid report; a phase diagram "
                   "needs at least one");
    // The engine's effective grid always carries its axes in schema
    // order (set_axis replaces in place on the default region grid,
    // whatever order the --grid spec named them), and cells enumerate
    // with the later axis fastest — so the later varying axis in
    // schema order IS the fast one for every engine-emitted corpus:
    // natural x (columns), the earlier one y (rows). Name --x/--y to
    // transpose (the slot mapping below handles any row order).
    xi_axis = varying.back();
    yi_axis = varying.size() > 1 ? varying.front() : (xi_axis == 0 ? 1 : 0);
  } else {
    // Either request alone pins its axis; the other defaults to the
    // remaining varying axis (or the first constant one).
    const auto other_varying = [&](std::size_t chosen) {
      for (const std::size_t a : varying) {
        if (a != chosen) return a;
      }
      return chosen == 0 ? std::size_t{1} : std::size_t{0};
    };
    if (!x_req.empty()) xi_axis = axis_index(x_req);
    if (!y_req.empty()) yi_axis = axis_index(y_req);
    if (x_req.empty()) xi_axis = other_varying(yi_axis);
    if (y_req.empty()) yi_axis = other_varying(xi_axis);
    P2P_ASSERT_MSG(xi_axis != yi_axis,
                   "x and y must name different axes (both \"" +
                       (x_req.empty() ? y_req : x_req) + "\")");
  }
  for (const std::size_t a : varying) {
    P2P_ASSERT_MSG(a == xi_axis || a == yi_axis,
                   "axis \"" + std::string(axis_names()[a]) +
                       "\" varies but is neither x nor y; a phase diagram "
                       "is a 2-D slice");
  }
  grid.x_axis = axis_names()[xi_axis];
  grid.y_axis = axis_names()[yi_axis];
  grid.x_values = axis_values[xi_axis].values();
  grid.y_values = axis_values[yi_axis].values();

  // --- Tile the cells into row-major [y][x] slots ---
  const std::size_t nx = grid.x_values.size();
  const std::size_t ny = grid.y_values.size();
  P2P_ASSERT_MSG(n == nx * ny,
                 "grid report rows (" + std::to_string(n) +
                     ") do not tile the " + std::to_string(nx) + " x " +
                     std::to_string(ny) + " (x, y) product");
  // Engine corpora in their default orientation already arrive in slot
  // order: row yi * nx + xi holds (x_values[xi], y_values[yi]). Then
  // every slot is filled exactly once and the rows move in whole; any
  // other order (a transposed --x/--y) tiles through the value index.
  // The check runs on the pool in blocks of whole y rows; a block stops
  // once any block has found a row out of place.
  std::atomic<bool> row_major{true};
  const std::size_t block_rows = std::max<std::size_t>(1, kCellBlock / nx);
  pool.parallel_for((ny + block_rows - 1) / block_rows, [&](std::size_t b) {
    const std::size_t y_end = std::min(ny, (b + 1) * block_rows);
    for (std::size_t yi = b * block_rows; yi < y_end; ++yi) {
      if (!row_major.load(std::memory_order_relaxed)) return;
      const double y = grid.y_values[yi];
      const PhaseCell* row = rows.cells.data() + yi * nx;
      for (std::size_t xi = 0; xi < nx; ++xi) {
        if (axis_value(row[xi].params, xi_axis) != grid.x_values[xi] ||
            axis_value(row[xi].params, yi_axis) != y) {
          row_major.store(false, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  PhaseCells by_row;  // row order, when it differs from slots
  if (row_major) {
    grid.cells = std::move(rows.cells);
  } else {
    by_row = std::move(rows.cells);
    grid.cells.resize(n);  // unconstructed: each slot is constructed once
    std::vector<char> filled(n, 0);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t xi =
          axis_values[xi_axis].at(axis_value(by_row[r].params, xi_axis));
      const std::size_t yi =
          axis_values[yi_axis].at(axis_value(by_row[r].params, yi_axis));
      const std::size_t slot = yi * nx + xi;
      P2P_ASSERT_MSG(!filled[slot],
                     "grid report repeats the cell at (" + grid.x_axis +
                         " = " + format_number(grid.x_values[xi]) +
                         ", " + grid.y_axis + " = " +
                         format_number(grid.y_values[yi]) + ")");
      filled[slot] = 1;
      std::construct_at(&grid.cells[slot], by_row[r]);
    }
    // n == nx * ny and no slot repeated => every slot is filled.
  }
  const PhaseCells& parsed = row_major ? grid.cells : by_row;

  // --- Scenario reconstruction from the per-type block ---
  if (schema.has_scenario) {
    const std::size_t block_width = schema.mix_types.size() + 1;
    const std::vector<double>& type_cols = rows.type_cols;
    const auto ctx = [](std::size_t r) {
      return "grid report row " + std::to_string(r);
    };
    // The composition is recoverable from any cell with a nonzero typed
    // share; take the largest for the cleanest division.
    std::size_t best = n;
    double best_ml = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const double ml = parsed[r].params.mix * parsed[r].params.lambda;
      if (ml > best_ml) {
        best_ml = ml;
        best = r;
      }
    }
    std::vector<double> rates(schema.mix_types.size(), 0.0);
    if (best < n) {
      double total = 0;
      for (std::size_t i = 0; i < rates.size(); ++i) {
        rates[i] = type_cols[best * block_width + 1 + i] / best_ml;
        P2P_ASSERT_MSG(std::isfinite(rates[i]) && rates[i] >= 0,
                       "per-type rates must be nonnegative (" + ctx(best) +
                           ")");
        total += rates[i];
      }
      P2P_ASSERT_MSG(std::abs(total - 1) <= 1e-9,
                     "per-type columns divided by mix * lambda must be "
                     "fractions summing to 1 (" + ctx(best) + ")");
      const int k = parsed[best].params.k;
      grid.scenario.name = "ingested";
      grid.scenario.num_pieces = k;
      for (std::size_t i = 0; i < rates.size(); ++i) {
        P2P_ASSERT_MSG(
            schema.mix_types[i].is_subset_of(PieceSet::full(k)),
            "per-type column names a piece beyond the grid's K = " +
                std::to_string(k));
        grid.scenario.mix.push_back({schema.mix_types[i], rates[i]});
      }
    }
    // Every row's per-type block must be consistent with its mix and
    // lambda — a corpus whose composition columns contradict its axes
    // is corrupt, and the re-bisection below would silently classify
    // the wrong model.
    for (std::size_t r = 0; r < n; ++r) {
      const double lambda = parsed[r].params.lambda;
      const double mix = parsed[r].params.mix;
      P2P_ASSERT_MSG(
          close(type_cols[r * block_width], (1 - mix) * lambda),
          "lambda_empty contradicts (1 - mix) * lambda (" + ctx(r) + ")");
      for (std::size_t i = 0; i < rates.size(); ++i) {
        P2P_ASSERT_MSG(
            close(type_cols[r * block_width + 1 + i],
                  mix * lambda * rates[i]),
            "per-type column " + engine::mix_column_name(schema.mix_types[i]) +
                " contradicts mix * lambda * fraction (" + ctx(r) + ")");
      }
    }
  }
  return grid;
}

/// One batch in flight, and what decoding it found.
struct BatchSlot {
  engine::CsvBatch batch;
  std::string error;             // the first failure's message, or ""
  std::vector<ValueIndex> axes;  // this batch's axis values
};

/// Decodes every record of the slot's batch into `cells`/`type_cols`
/// (the slots of its rows), noting the first failure instead of
/// aborting.
void decode_batch(BatchSlot& slot, const engine::CsvReader& reader,
                  const GridRowDecoder& decoder, PhaseCell* cells,
                  double* type_cols) {
  slot.axes.assign(kNumAxes, ValueIndex());
  engine::CsvBatchCursor cursor(slot.batch, reader);
  std::vector<std::string_view> views;
  try {
    for (std::size_t i = 0; cursor.next(&views); ++i) {
      decode_row(decoder, RowCells(views, "grid", cursor.row()), cells + i,
                 type_cols + i * decoder.block_width, slot.axes);
    }
  } catch (const RowError& e) {
    slot.error = e.message;
    return;
  }
  slot.error = cursor.error();
}

}  // namespace

const PhaseBox& BoxGrid::box_at(double x, double y) const {
  const PhaseBox* found = nullptr;
  for (const PhaseBox& b : boxes) {
    const bool in_x = x >= b.x0 && (x < b.x0 + b.ext_x ||
                                    (x == x_max && b.x0 + b.ext_x == x_max));
    const bool in_y = y >= b.y0 && (y < b.y0 + b.ext_y ||
                                    (y == y_max && b.y0 + b.ext_y == y_max));
    if (!in_x || !in_y) continue;
    P2P_ASSERT_MSG(found == nullptr,
                   "adaptive leaves overlap at (" +
                       format_number(x) + ", " +
                       format_number(y) + ")");
    found = &b;
  }
  P2P_ASSERT_MSG(found != nullptr,
                 "no adaptive leaf contains (" + format_number(x) +
                     ", " + format_number(y) + ")");
  return *found;
}

/// One pass over the rows, retaining O(boxes) typed state. Geometry
/// comes from the trailing box block; the origin vertex's evaluation
/// from the ordinary grid columns at the same offsets the cartesian
/// builder uses.
BoxGrid build_box_grid(engine::CsvReader& reader) {
  const ReportSchema schema = engine::validate_report_schema(reader.columns());
  P2P_ASSERT_MSG(schema.kind == ReportKind::kGrid && schema.has_boxes,
                 "box grids are built from adaptive grid reports (header "
                 "carries the box_depth/box_uniform/box_ext_* block)");
  P2P_ASSERT_MSG(schema.box_axes.size() == 2,
                 "box-grid rendering needs exactly two box axes (got " +
                     std::to_string(schema.box_axes.size()) +
                     "; slice higher-D adaptive volumes before rendering)");

  BoxGrid grid;
  // Same orientation as the cartesian builder's default: the later axis
  // in schema order is the fast one — natural x.
  grid.y_axis = schema.box_axes[0];
  grid.x_axis = schema.box_axes[1];
  const std::size_t y_slot = axis_index(grid.y_axis);
  const std::size_t x_slot = axis_index(grid.x_axis);
  const std::size_t tail = schema.tail_start;
  const std::size_t box = schema.box_start;

  std::vector<std::string_view> cells;
  try {
    for (std::size_t r = 0; reader.next_row(&cells); ++r) {
      const RowCells row(cells, "adaptive", r);
      P2P_ROW_CHECK(row.num(0) == static_cast<double>(r),
                    "adaptive report cell indices must run 0..n-1 in row "
                    "order (" + row.context() + " has cell " +
                        std::string(row[0]) + ")");
      PhaseBox b;
      double k_raw = 0, flash_raw = 0;
      b.params = decode_params(row, &k_raw, &flash_raw);
      b.verdict = row.verdict(tail);
      b.margin = row.num(tail + 1);
      b.replicas = decode_replicas(row, tail + 3);
      b.sim_mean_peers = row.num(tail + 5);

      const auto ctx = [&] { return " (" + row.context() + ")"; };
      const double depth_raw = row.num(box);
      b.depth = static_cast<int>(std::lround(depth_raw));
      P2P_ROW_CHECK(b.depth >= 0 && std::abs(depth_raw - b.depth) < 1e-9,
                    "box_depth must be a nonnegative integer" + ctx());
      const double uniform_raw = row.num(box + 1);
      P2P_ROW_CHECK(uniform_raw == 0 || uniform_raw == 1,
                    "box_uniform must be 0 or 1" + ctx());
      b.uniform = uniform_raw == 1;
      b.ext_y = row.num(box + 2);
      b.ext_x = row.num(box + 3);
      P2P_ROW_CHECK(std::isfinite(b.ext_x) && b.ext_x > 0 &&
                        std::isfinite(b.ext_y) && b.ext_y > 0,
                    "box extents must be positive finite numbers" + ctx());
      b.x0 = axis_value(b.params, x_slot);
      b.y0 = axis_value(b.params, y_slot);
      P2P_ROW_CHECK(std::isfinite(b.x0) && std::isfinite(b.y0),
                    "box origins must be finite" + ctx());
      grid.boxes.push_back(b);
    }
  } catch (const RowError& e) {
    P2P_ASSERT_MSG(false, e.message);
  }
  P2P_ASSERT_MSG(!grid.boxes.empty(), "adaptive report has no rows");

  grid.x_min = grid.boxes[0].x0;
  grid.x_max = grid.boxes[0].x0 + grid.boxes[0].ext_x;
  grid.y_min = grid.boxes[0].y0;
  grid.y_max = grid.boxes[0].y0 + grid.boxes[0].ext_y;
  grid.min_ext_x = grid.boxes[0].ext_x;
  grid.min_ext_y = grid.boxes[0].ext_y;
  double measure = 0;
  for (const PhaseBox& b : grid.boxes) {
    grid.x_min = std::min(grid.x_min, b.x0);
    grid.x_max = std::max(grid.x_max, b.x0 + b.ext_x);
    grid.y_min = std::min(grid.y_min, b.y0);
    grid.y_max = std::max(grid.y_max, b.y0 + b.ext_y);
    grid.min_ext_x = std::min(grid.min_ext_x, b.ext_x);
    grid.min_ext_y = std::min(grid.min_ext_y, b.ext_y);
    grid.max_depth = std::max(grid.max_depth, b.depth);
    measure += b.ext_x * b.ext_y;
  }
  // The leaves of a subdivision tile the window exactly once, so their
  // total measure must equal the bounding window's — a cheap O(n) guard
  // that catches dropped, duplicated or mis-extended rows (box_at then
  // asserts pointwise uniqueness on every query).
  const double window =
      (grid.x_max - grid.x_min) * (grid.y_max - grid.y_min);
  P2P_ASSERT_MSG(std::abs(measure - window) <= 1e-9 * window,
                 "adaptive leaves do not tile their bounding window "
                 "(total box measure " + format_number(measure) +
                     " vs window " + format_number(window) + ")");
  return grid;
}

#undef P2P_ROW_CHECK

PhaseGrid build_phase_grid(engine::CsvReader& reader,
                           const std::string& x_axis,
                           const std::string& y_axis, int threads) {
  P2P_ASSERT_MSG(threads >= 0, "phase-grid ingest threads must be >= 0");
  threads = engine::ThreadPool::all_cores_if_zero(threads);
  // More threads than batches would only wait: an input of one batch
  // never starts a pool.
  if (const std::size_t bytes = reader.input_bytes(); bytes != 0) {
    threads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(threads), bytes / reader.batch_bytes() + 1));
  }
  const ReportSchema schema = grid_schema(reader.columns());
  GridRowDecoder decoder(schema);
  GridRows rows;

  // A ring of 2 * threads batch slots bounds the bytes in flight. Every
  // thread runs one loop, taking the first job it can: commit a cut
  // batch (grow the rows for it), cut the next batch off the reader (one
  // cutter at a time, record boundaries only), or decode the oldest
  // committed batch. Cutting ahead keeps the decoders fed, so no thread
  // waits on a round. Batches retire in batch order: the first error
  // retired is the earliest row's, and axis values merge in row order,
  // so the result and every message are the serial ones.
  const std::size_t ring = 2 * static_cast<std::size_t>(threads);
  std::vector<BatchSlot> slots(ring);
  for (BatchSlot& slot : slots) reader.reserve_batch(&slot.batch);

  // The first batch committed names the policy and sizes the corpus.
  // It commits under the lock before any decode is claimed, so every
  // decoder sees policy0.
  const auto first_batch = [&](const engine::CsvBatch& first) {
    if (decoder.has_policy) {
      engine::CsvBatchCursor cursor(first, reader);
      std::vector<std::string_view> cells;
      if (cursor.next(&cells)) decoder.policy0 = cells[decoder.policy_col];
    }
    // Engine rows are near-constant in length, so the first batch's
    // bytes per row sizes the whole corpus; reserving it keeps the typed
    // rows from being copied (with every decode stopped) as they grow.
    if (first.rows > 0 && reader.input_bytes() > first.bytes.size()) {
      const std::size_t estimate = static_cast<std::size_t>(
          static_cast<double>(first.rows) *
          static_cast<double>(reader.input_bytes()) /
          static_cast<double>(first.bytes.size()) * 1.125);
      rows.cells.reserve(estimate);
      rows.type_cols.reserve(estimate * decoder.block_width);
    }
  };

  std::mutex mutex;
  std::condition_variable changed;
  std::size_t cut = 0;       // batches cut and committed
  std::size_t claimed = 0;   // batches handed to a decoder
  std::size_t decoding = 0;  // decodes in flight
  std::size_t retired = 0;   // batches checked and merged, in order
  std::vector<char> decoded(ring, 0);
  bool end = false;      // the reader has returned its last batch
  bool cutting = false;  // a thread is inside next_batch
  bool pending = false;  // slot cut % ring holds a cut, uncommitted batch
  std::string error;     // the earliest failing batch's message
  const auto work = [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    while (error.empty()) {
      if (pending) {
        const engine::CsvBatch& batch = slots[cut % ring].batch;
        if (cut == 0) first_batch(batch);
        // Growing past the reserve moves every cell: only with all
        // committed batches decoded and none in flight.
        if (rows.fits(batch.rows, decoder.block_width) ||
            (decoding == 0 && claimed == cut)) {
          rows.grow(batch.rows, decoder.block_width);
          ++cut;
          pending = false;
          changed.notify_all();
          continue;
        }
      }
      if (!end && !cutting && !pending && cut - retired < ring) {
        cutting = true;
        engine::CsvBatch& batch = slots[cut % ring].batch;
        lock.unlock();
        const bool got = reader.next_batch(&batch);
        lock.lock();
        cutting = false;
        if (got) {
          pending = true;
        } else {
          end = true;
        }
        changed.notify_all();
        continue;
      }
      if (claimed < cut) {
        BatchSlot& slot = slots[claimed++ % ring];
        ++decoding;
        const std::size_t first = slot.batch.first_row;
        PhaseCell* cells = rows.cells.data() + first;
        double* type_cols =
            rows.type_cols.data() + first * decoder.block_width;
        lock.unlock();
        decode_batch(slot, reader, decoder, cells, type_cols);
        lock.lock();
        --decoding;
        decoded[&slot - slots.data()] = 1;
        while (error.empty() && retired < claimed && decoded[retired % ring]) {
          BatchSlot& done = slots[retired % ring];
          decoded[retired % ring] = 0;
          ++retired;
          error = done.error;
          if (error.empty()) rows.merge(done.axes);
        }
        changed.notify_all();
        continue;
      }
      if (end && !cutting && !pending && retired == cut) break;
      changed.wait(lock);
    }
    changed.notify_all();
  };
  engine::ThreadPool pool(threads);
  pool.parallel_for(static_cast<std::size_t>(threads), work);
  P2P_ASSERT_MSG(error.empty(), error);
  return assemble_phase_grid(schema, std::move(rows), decoder.policy0, x_axis,
                             y_axis, pool);
}

std::vector<PhaseFrontierPoint> extract_frontier(const PhaseGrid& grid,
                                                 double tol, int threads) {
  P2P_ASSERT_MSG(std::isfinite(tol) && tol > 0,
                 "frontier tolerance must be positive and finite");
  P2P_ASSERT_MSG(threads >= 1, "frontier extraction threads must be >= 1");
  const bool can_bisect = engine::refinable_axis(grid.x_axis);
  const std::size_t nx = grid.num_x();

  std::vector<PhaseFrontierPoint> points(grid.num_y());
  engine::ThreadPool pool(threads);
  pool.parallel_for(grid.num_y(), [&](std::size_t yi) {
    PhaseFrontierPoint pt;
    pt.row = yi;
    pt.y = grid.y_values[yi];

    // Coarse scan: first adjacent verdict change in grid order — the
    // same convention as run_frontier_stream, so the two localizations are
    // comparable row for row.
    std::size_t b = nx;
    for (std::size_t xi = 0; xi + 1 < nx; ++xi) {
      if (grid.at(yi, xi).verdict != grid.at(yi, xi + 1).verdict) {
        b = xi;
        break;
      }
    }
    if (b == nx) {
      points[yi] = pt;
      return;
    }
    pt.bracketed = true;
    pt.x_lo = grid.x_values[b];
    pt.x_hi = grid.x_values[b + 1];

    // Data-only estimate: the Theorem-1 margin is piecewise linear in
    // every refinable axis, so when the bracket cells share a critical
    // piece the zero crossing of the recorded margins IS the frontier.
    // The straddle test keeps either endpoint sitting exactly on the
    // boundary (margin 0) — the crossing is then that endpoint itself.
    const double m_lo = grid.at(yi, b).margin;
    const double m_hi = grid.at(yi, b + 1).margin;
    const bool straddles = (m_lo <= 0 && m_hi >= 0) || (m_lo >= 0 && m_hi <= 0);
    if (std::isfinite(m_lo) && std::isfinite(m_hi) && m_lo != m_hi &&
        straddles) {
      pt.interpolated = pt.x_lo + (pt.x_hi - pt.x_lo) * m_lo / (m_lo - m_hi);
    }

    // Closed-form re-derivation: rebuild the bracket cell, bisect the
    // classify() flip — exactly what run_frontier_stream does at sweep
    // time, now recovered from the archive.
    if (can_bisect && std::isfinite(pt.x_lo) && std::isfinite(pt.x_hi)) {
      CellParams p = grid.at(yi, b).params;
      const auto verdict_at = [&](double v) {
        set_refinable(p, grid.x_axis, v);
        return classify(engine::expand(grid.scenario, p).params).verdict;
      };
      const auto [lo, hi] = engine::bisect_verdict_flip(
          pt.x_lo, pt.x_hi, verdict_at(pt.x_lo), tol, verdict_at);
      pt.value_lo = lo;
      pt.value_hi = hi;
      pt.value = 0.5 * (lo + hi);
      set_refinable(p, grid.x_axis, pt.value);
      pt.margin = classify(engine::expand(grid.scenario, p).params).margin;
    }
    points[yi] = pt;
  });
  return points;
}

VerdictAgreement verdict_agreement(const PhaseGrid& grid, double threshold,
                                   double confidence, int resamples,
                                   std::uint64_t seed, int threads) {
  P2P_ASSERT_MSG(confidence > 0 && confidence < 1,
                 "confidence must lie in (0, 1)");
  P2P_ASSERT_MSG(resamples >= 10, "bootstrap resamples must be >= 10");
  P2P_ASSERT_MSG(threads >= 0, "verdict agreement threads must be >= 0");

  // One pass over the cells on the pool, in fixed blocks: each block
  // tallies theory vs fluid over its cells and gathers its cells with
  // simulation data, and the blocks merge in order, so the sim cells —
  // and the bootstrap's indicators — come out in grid order.
  struct BlockScan {
    std::size_t fluid_counts[3][3] = {};
    std::size_t fluid_compared = 0, fluid_agreeing = 0;
    std::vector<const PhaseCell*> sim_cells;
  };
  const std::size_t n = grid.cells.size();
  std::vector<BlockScan> scans((n + kCellBlock - 1) / kCellBlock);
  engine::ThreadPool pool(static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(engine::ThreadPool::all_cores_if_zero(threads)),
      std::max<std::size_t>(1, scans.size()))));
  pool.parallel_for(scans.size(), [&](std::size_t b) {
    BlockScan& scan = scans[b];
    const PhaseCell* const cells = grid.cells.data();
    const PhaseCell* const end = cells + std::min(n, (b + 1) * kCellBlock);
    for (const PhaseCell* c = cells + b * kCellBlock; c != end; ++c) {
      if (grid.has_fluid) {
        // Both verdicts are closed-form, so the theory-vs-fluid matrix
        // covers every cell — no simulation gate.
        scan.fluid_counts[static_cast<int>(c->verdict)]
                         [static_cast<int>(c->fluid)] += 1;
        if (c->verdict != Stability::kBorderline &&
            c->fluid != Stability::kBorderline) {
          ++scan.fluid_compared;
          if (c->verdict == c->fluid) ++scan.fluid_agreeing;
        }
      }
      if (c->replicas > 0 && std::isfinite(c->sim_mean_peers)) {
        scan.sim_cells.push_back(c);
      }
    }
  });

  VerdictAgreement out;
  out.has_fluid = grid.has_fluid;
  std::vector<const PhaseCell*> sim_cells;
  for (const BlockScan& scan : scans) {
    for (int t = 0; t < 3; ++t) {
      for (int f = 0; f < 3; ++f) {
        out.fluid_counts[t][f] += scan.fluid_counts[t][f];
      }
    }
    out.fluid_compared += scan.fluid_compared;
    out.fluid_agreeing += scan.fluid_agreeing;
    sim_cells.insert(sim_cells.end(), scan.sim_cells.begin(),
                     scan.sim_cells.end());
  }
  out.cells_with_sim = sim_cells.size();
  if (sim_cells.empty()) return out;

  if (std::isnan(threshold)) {
    // Median simulated occupancy: scale free, deterministic (sorted,
    // lower-mid/upper-mid average for even counts).
    std::vector<double> means;
    means.reserve(sim_cells.size());
    for (const PhaseCell* c : sim_cells) means.push_back(c->sim_mean_peers);
    std::sort(means.begin(), means.end());
    const std::size_t m = means.size();
    threshold = (m % 2 == 1) ? means[m / 2]
                             : 0.5 * (means[m / 2 - 1] + means[m / 2]);
  }
  P2P_ASSERT_MSG(std::isfinite(threshold),
                 "sim occupancy threshold must be finite");
  out.threshold = threshold;

  std::vector<double> indicators;
  for (const PhaseCell* c : sim_cells) {
    const bool busy = c->sim_mean_peers > threshold;
    out.counts[static_cast<int>(c->verdict)][busy ? 1 : 0] += 1;
    if (grid.has_fluid) {
      out.counts3[static_cast<int>(c->verdict)][static_cast<int>(c->fluid)]
                 [busy ? 1 : 0] += 1;
    }
    if (c->verdict == Stability::kBorderline) continue;
    const bool agree = (c->verdict == Stability::kTransient) == busy;
    indicators.push_back(agree ? 1.0 : 0.0);
    ++out.compared;
    if (agree) ++out.agreeing;
  }
  if (out.compared == 0) return out;

  out.agreement = static_cast<double>(out.agreeing) /
                  static_cast<double>(out.compared);
  Rng rng(seed);
  const BootstrapResult ci = block_bootstrap(
      indicators,
      [](std::span<const double> s) {
        double m = 0;
        for (double x : s) m += x;
        return m / static_cast<double>(s.size());
      },
      /*block_length=*/1, resamples, confidence, rng);
  out.agreement_lo = ci.lower;
  out.agreement_hi = ci.upper;
  return out;
}

}  // namespace p2p::analysis
