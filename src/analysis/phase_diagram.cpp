#include "analysis/phase_diagram.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <unordered_map>

#include "engine/csv_reader.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace p2p::analysis {

namespace {

using engine::CellParams;
using engine::ReportKind;
using engine::ReportSchema;
using engine::Table;

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

Stability parse_verdict(const std::string& cell, const std::string& context) {
  for (const Stability v : {Stability::kPositiveRecurrent,
                            Stability::kTransient, Stability::kBorderline}) {
    if (cell == to_string(v)) return v;
  }
  P2P_ASSERT_MSG(false, "unknown verdict \"" + cell + "\" in " + context);
  return Stability::kBorderline;
}

/// Exact-match value -> first-appearance index, tolerating +-0.0
/// aliasing. Axis values come verbatim from the emitting grid, so
/// equality — not tolerance — is the right notion of "same coarse
/// value".
class ValueIndex {
 public:
  /// Returns the value's index, inserting it if new.
  std::size_t insert(double v) {
    const auto [it, inserted] = map_.try_emplace(key(v), values_.size());
    if (inserted) values_.push_back(v);
    return it->second;
  }
  /// Index of an already-inserted value.
  std::size_t at(double v) const { return map_.at(key(v)); }
  std::size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

 private:
  static double key(double v) { return v == 0 ? 0.0 : v; }
  std::unordered_map<double, std::size_t> map_;
  std::vector<double> values_;
};

/// a == b up to fp noise from reconstructing products out of their
/// archived factors (division + multiplication round-trips).
bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Shared ingestion core behind both build_phase_grid overloads: one
/// pass over the rows pumped by `next_row` (an in-memory Table or the
/// streaming CsvReader), retaining O(cells) typed state — never the
/// document. The per-type block is kept as doubles for the post-pass
/// scenario reconstruction, so rows are not revisited.
PhaseGrid build_phase_grid_rows(
    const std::vector<std::string>& columns,
    const std::function<bool(std::vector<std::string>*)>& next_row,
    const std::string& x_req, const std::string& y_req) {
  const ReportSchema schema = engine::validate_report_schema(columns);
  P2P_ASSERT_MSG(schema.kind == ReportKind::kGrid,
                 "phase grids are built from grid reports, not frontier "
                 "tables (header starts with \"row\")");

  // --- Typed ingestion, one streaming pass ---
  std::vector<PhaseCell> parsed;
  std::vector<ValueIndex> axis_values(kNumAxes);
  const std::size_t tail = schema.tail_start;
  const std::size_t block = engine::sweep_schema_head().size();
  const std::size_t block_width = schema.mix_types.size() + 1;
  // Optional trailing columns sit after the fixed tail, in the order
  // the writer appends them: sim_backend, policy, fluid_verdict. Their
  // positions depend on which are present, so derive them from the
  // schema flags instead of fixed offsets.
  std::size_t opt = tail + engine::sweep_schema_tail().size();
  if (schema.has_backend) ++opt;
  const std::size_t policy_col = schema.has_policy ? opt++ : 0;
  const std::size_t fluid_col = schema.has_fluid ? opt : 0;
  std::string policy;
  // Row-major per-type block copies (lambda_empty first), when present.
  std::vector<double> type_cols;
  std::vector<std::string> row;
  for (std::size_t r = 0; next_row(&row); ++r) {
    const std::string ctx = "grid report row " + std::to_string(r);
    const auto num = [&](std::size_t col) {
      return engine::parse_report_number(row[col], ctx);
    };

    P2P_ASSERT_MSG(num(0) == static_cast<double>(r),
                   "grid report cell indices must run 0..n-1 in row order "
                   "(" + ctx + " has cell " + row[0] + ")");
    PhaseCell c;
    c.params.lambda = num(1);
    c.params.us = num(2);
    c.params.mu = num(3);
    c.params.gamma = num(4);
    const double k_raw = num(5);
    c.params.k = static_cast<int>(std::lround(k_raw));
    c.params.eta = num(6);
    const double flash_raw = num(7);
    c.params.flash = std::llround(flash_raw);
    c.params.mix = num(8);
    c.params.hetero = num(9);

    P2P_ASSERT_MSG(std::isfinite(c.params.lambda) && c.params.lambda > 0,
                   "lambda must be a positive finite number (" + ctx + ")");
    P2P_ASSERT_MSG(std::isfinite(c.params.us) && c.params.us >= 0,
                   "us must be a nonnegative finite number (" + ctx + ")");
    P2P_ASSERT_MSG(std::isfinite(c.params.mu) && c.params.mu > 0,
                   "mu must be a positive finite number (" + ctx + ")");
    P2P_ASSERT_MSG(c.params.gamma > 0,  // inf allowed
                   "gamma must be positive (" + ctx + ")");
    P2P_ASSERT_MSG(c.params.k >= 1 && std::abs(k_raw - c.params.k) < 1e-9,
                   "k must be a positive integer (" + ctx + ")");
    P2P_ASSERT_MSG(std::isfinite(c.params.eta) && c.params.eta >= 1,
                   "eta must be >= 1 (" + ctx + ")");
    P2P_ASSERT_MSG(
        c.params.flash >= 0 &&
            std::abs(flash_raw - static_cast<double>(c.params.flash)) < 1e-9,
        "flash must be a nonnegative integer (" + ctx + ")");
    P2P_ASSERT_MSG(c.params.mix >= 0 && c.params.mix <= 1,
                   "mix must lie in [0, 1] (" + ctx + ")");
    P2P_ASSERT_MSG(c.params.hetero >= 0 && c.params.hetero < 1,
                   "hetero must lie in [0, 1) (" + ctx + ")");

    c.verdict = parse_verdict(row[tail], ctx);
    c.margin = num(tail + 1);
    const double replicas_raw = num(tail + 3);
    c.replicas = static_cast<int>(std::lround(replicas_raw));
    P2P_ASSERT_MSG(c.replicas >= 0 &&
                       std::abs(replicas_raw - c.replicas) < 1e-9,
                   "replicas must be a nonnegative integer (" + ctx + ")");
    c.sim_mean_peers = num(tail + 5);
    c.ctmc_mean_peers = num(tail + 10);
    if (schema.has_policy) {
      // The policy is a sweep-level constant, so every row must repeat
      // one token — and it must be a token the writer can emit.
      const std::string& tok = row[policy_col];
      if (r == 0) {
        bool known = false;
        for (const PolicyKind kind :
             {PolicyKind::kRandomUseful, PolicyKind::kRarestFirst,
              PolicyKind::kMostCommonFirst, PolicyKind::kSequential}) {
          if (tok == to_string(kind)) known = true;
        }
        P2P_ASSERT_MSG(known,
                       "unknown policy \"" + tok + "\" in " + ctx);
        policy = tok;
      } else {
        P2P_ASSERT_MSG(tok == policy,
                       "the policy column must be constant over the grid "
                       "(" + ctx + " has \"" + tok + "\", row 0 had \"" +
                           policy + "\")");
      }
    }
    if (schema.has_fluid) c.fluid = parse_verdict(row[fluid_col], ctx);

    if (schema.has_scenario) {
      for (std::size_t i = 0; i < block_width; ++i) {
        type_cols.push_back(num(block + i));
      }
    }
    for (std::size_t a = 0; a < kNumAxes; ++a) {
      axis_values[a].insert(axis_value(c.params, a));
    }
    parsed.push_back(c);
  }
  const std::size_t n = parsed.size();
  P2P_ASSERT_MSG(n >= 1, "grid report has no rows");

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
  grid.cells.resize(n);
  std::vector<char> filled(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t xi = axis_values[xi_axis].at(
        axis_value(parsed[r].params, xi_axis));
    const std::size_t yi = axis_values[yi_axis].at(
        axis_value(parsed[r].params, yi_axis));
    const std::size_t slot = yi * nx + xi;
    P2P_ASSERT_MSG(!filled[slot],
                   "grid report repeats the cell at (" + grid.x_axis + " = " +
                       engine::format_number(grid.x_values[xi]) + ", " +
                       grid.y_axis + " = " +
                       engine::format_number(grid.y_values[yi]) + ")");
    filled[slot] = 1;
    grid.cells[slot] = parsed[r];
  }
  // n == nx * ny and no slot repeated => every slot is filled.

  // --- Scenario reconstruction from the per-type block ---
  if (schema.has_scenario) {
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
      const std::string ctx = "grid report row " + std::to_string(best);
      double total = 0;
      for (std::size_t i = 0; i < rates.size(); ++i) {
        rates[i] = type_cols[best * block_width + 1 + i] / best_ml;
        P2P_ASSERT_MSG(std::isfinite(rates[i]) && rates[i] >= 0,
                       "per-type rates must be nonnegative (" + ctx + ")");
        total += rates[i];
      }
      P2P_ASSERT_MSG(std::abs(total - 1) <= 1e-9,
                     "per-type columns divided by mix * lambda must be "
                     "fractions summing to 1 (" + ctx + ")");
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
      const std::string ctx = "grid report row " + std::to_string(r);
      const double lambda = parsed[r].params.lambda;
      const double mix = parsed[r].params.mix;
      P2P_ASSERT_MSG(
          close(type_cols[r * block_width], (1 - mix) * lambda),
          "lambda_empty contradicts (1 - mix) * lambda (" + ctx + ")");
      for (std::size_t i = 0; i < rates.size(); ++i) {
        P2P_ASSERT_MSG(
            close(type_cols[r * block_width + 1 + i],
                  mix * lambda * rates[i]),
            "per-type column " + engine::mix_column_name(schema.mix_types[i]) +
                " contradicts mix * lambda * fraction (" + ctx + ")");
      }
    }
  }
  return grid;
}

/// Shared ingestion core behind both build_box_grid overloads: one pass
/// over the rows, retaining O(boxes) typed state. Geometry comes from
/// the trailing box block; the origin vertex's evaluation from the
/// ordinary grid columns at the same offsets the cartesian builder uses.
BoxGrid build_box_grid_rows(
    const std::vector<std::string>& columns,
    const std::function<bool(std::vector<std::string>*)>& next_row) {
  const ReportSchema schema = engine::validate_report_schema(columns);
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

  std::vector<std::string> row;
  for (std::size_t r = 0; next_row(&row); ++r) {
    const std::string ctx = "adaptive report row " + std::to_string(r);
    const auto num = [&](std::size_t col) {
      return engine::parse_report_number(row[col], ctx);
    };
    P2P_ASSERT_MSG(num(0) == static_cast<double>(r),
                   "adaptive report cell indices must run 0..n-1 in row "
                   "order (" + ctx + " has cell " + row[0] + ")");
    PhaseBox b;
    b.params.lambda = num(1);
    b.params.us = num(2);
    b.params.mu = num(3);
    b.params.gamma = num(4);
    b.params.k = static_cast<int>(std::lround(num(5)));
    b.params.eta = num(6);
    b.params.flash = std::llround(num(7));
    b.params.mix = num(8);
    b.params.hetero = num(9);
    b.verdict = parse_verdict(row[tail], ctx);
    b.margin = num(tail + 1);
    const double replicas_raw = num(tail + 3);
    b.replicas = static_cast<int>(std::lround(replicas_raw));
    P2P_ASSERT_MSG(b.replicas >= 0 &&
                       std::abs(replicas_raw - b.replicas) < 1e-9,
                   "replicas must be a nonnegative integer (" + ctx + ")");
    b.sim_mean_peers = num(tail + 5);

    const double depth_raw = num(schema.box_start);
    b.depth = static_cast<int>(std::lround(depth_raw));
    P2P_ASSERT_MSG(b.depth >= 0 && std::abs(depth_raw - b.depth) < 1e-9,
                   "box_depth must be a nonnegative integer (" + ctx + ")");
    const double uniform_raw = num(schema.box_start + 1);
    P2P_ASSERT_MSG(uniform_raw == 0 || uniform_raw == 1,
                   "box_uniform must be 0 or 1 (" + ctx + ")");
    b.uniform = uniform_raw == 1;
    b.ext_y = num(schema.box_start + 2);
    b.ext_x = num(schema.box_start + 3);
    P2P_ASSERT_MSG(std::isfinite(b.ext_x) && b.ext_x > 0 &&
                       std::isfinite(b.ext_y) && b.ext_y > 0,
                   "box extents must be positive finite numbers (" + ctx +
                       ")");
    b.x0 = axis_value(b.params, x_slot);
    b.y0 = axis_value(b.params, y_slot);
    P2P_ASSERT_MSG(std::isfinite(b.x0) && std::isfinite(b.y0),
                   "box origins must be finite (" + ctx + ")");
    grid.boxes.push_back(b);
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
                 "(total box measure " + engine::format_number(measure) +
                     " vs window " + engine::format_number(window) + ")");
  return grid;
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
                       engine::format_number(x) + ", " +
                       engine::format_number(y) + ")");
    found = &b;
  }
  P2P_ASSERT_MSG(found != nullptr,
                 "no adaptive leaf contains (" + engine::format_number(x) +
                     ", " + engine::format_number(y) + ")");
  return *found;
}

BoxGrid build_box_grid(const Table& table) {
  std::size_t r = 0;
  return build_box_grid_rows(table.columns(),
                             [&](std::vector<std::string>* cells) {
                               if (r >= table.num_rows()) return false;
                               *cells = table.row(r++);
                               return true;
                             });
}

BoxGrid build_box_grid(engine::CsvReader& reader) {
  return build_box_grid_rows(
      reader.columns(),
      [&](std::vector<std::string>* cells) { return reader.next_row(cells); });
}

PhaseGrid build_phase_grid(const Table& table, const std::string& x_axis,
                           const std::string& y_axis) {
  std::size_t r = 0;
  return build_phase_grid_rows(
      table.columns(),
      [&](std::vector<std::string>* cells) {
        if (r >= table.num_rows()) return false;
        *cells = table.row(r++);
        return true;
      },
      x_axis, y_axis);
}

PhaseGrid build_phase_grid(engine::CsvReader& reader,
                           const std::string& x_axis,
                           const std::string& y_axis) {
  return build_phase_grid_rows(
      reader.columns(),
      [&](std::vector<std::string>* cells) { return reader.next_row(cells); },
      x_axis, y_axis);
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
    // same convention as refine_frontier, so the two localizations are
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
    // classify() flip — exactly what refine_frontier does at sweep
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
                                   std::uint64_t seed) {
  P2P_ASSERT_MSG(confidence > 0 && confidence < 1,
                 "confidence must lie in (0, 1)");
  P2P_ASSERT_MSG(resamples >= 10, "bootstrap resamples must be >= 10");

  VerdictAgreement out;
  out.has_fluid = grid.has_fluid;
  if (grid.has_fluid) {
    // Both verdicts are closed-form, so the theory-vs-fluid matrix
    // covers every cell — no simulation gate.
    for (const PhaseCell& c : grid.cells) {
      const int t = static_cast<int>(c.verdict);
      const int f = static_cast<int>(c.fluid);
      out.fluid_counts[t][f] += 1;
      if (c.verdict != Stability::kBorderline &&
          c.fluid != Stability::kBorderline) {
        ++out.fluid_compared;
        if (c.verdict == c.fluid) ++out.fluid_agreeing;
      }
    }
  }
  std::vector<const PhaseCell*> sim_cells;
  for (const PhaseCell& c : grid.cells) {
    if (c.replicas > 0 && std::isfinite(c.sim_mean_peers)) {
      sim_cells.push_back(&c);
    }
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
