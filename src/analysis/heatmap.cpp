#include "analysis/heatmap.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "util/assert.hpp"
#include "util/number_format.hpp"

namespace p2p::analysis {

namespace {

struct Rgb {
  int r = 0, g = 0, b = 0;
};

// Diverging pair from the reference data-viz palette: neutral light
// midpoint, sequential-blue pole for the positive-recurrent arm, a
// darkened red pole for the transient arm, near-black ink for the
// frontier overlay on the light surface.
constexpr Rgb kMidpoint = {0xf0, 0xef, 0xec};   // margin ~ 0 / borderline
constexpr Rgb kStablePole = {0x0d, 0x36, 0x6b};  // blue, deep stability
constexpr Rgb kTransientPole = {0x7f, 0x1f, 0x1e};  // red, deep transience
constexpr Rgb kInk = {0x0b, 0x0b, 0x0b};
constexpr const char* kSurface = "#fcfcfb";
constexpr const char* kTextPrimary = "#0b0b0b";
constexpr const char* kTextSecondary = "#52514e";

/// `t` lies in [0, 1], so every channel value lies between two palette
/// channels and is never negative.
Rgb lerp(Rgb a, Rgb b, double t) {
  const auto mix = [t](int x, int y) {
    return detail::round_channel(x + (y - x) * t);
  };
  return {mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b)};
}

/// Largest finite |margin| over the grid; 1 when none (flat ramp).
double default_margin_scale(const PhaseGrid& grid) {
  double scale = 0;
  for (const PhaseCell& c : grid.cells) {
    if (std::isfinite(c.margin)) scale = std::max(scale, std::abs(c.margin));
  }
  return scale > 0 ? scale : 1;
}

Rgb cell_color(const PhaseCell& cell, double scale) {
  // sqrt ramp: most of the dynamic range goes to the near-frontier
  // cells, where the diagram's structure lives. sqrt is correctly
  // rounded per IEEE-754, so the bytes stay platform-stable.
  const double m = std::isfinite(cell.margin) ? std::abs(cell.margin) : 0;
  const double t = std::sqrt(std::min(1.0, m / scale));
  switch (cell.verdict) {
    case Stability::kPositiveRecurrent:
      return lerp(kMidpoint, kStablePole, t);
    case Stability::kTransient:
      return lerp(kMidpoint, kTransientPole, t);
    case Stability::kBorderline:
      return kMidpoint;
  }
  P2P_ASSERT(false);
  return kMidpoint;
}

/// The best frontier estimate a row offers: closed-form re-bisection,
/// else margin interpolation, else the bracket midpoint; NaN when the
/// row is unbracketed.
double frontier_x(const PhaseFrontierPoint& pt) {
  if (!pt.bracketed) return std::nan("");
  if (std::isfinite(pt.value)) return pt.value;
  if (std::isfinite(pt.interpolated)) return pt.interpolated;
  return 0.5 * (pt.x_lo + pt.x_hi);
}

/// Maps an x value to a fractional cell-center coordinate in [0, nx):
/// piecewise linear between adjacent coarse cells, so non-uniform axes
/// land where their bracket sits. NaN when x falls outside every
/// segment.
double x_to_cell_coord(const std::vector<double>& xs, double x) {
  if (!std::isfinite(x)) return std::nan("");
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    if (!std::isfinite(xs[i]) || !std::isfinite(xs[i + 1])) continue;
    if ((x - xs[i]) * (x - xs[i + 1]) <= 0 && xs[i] != xs[i + 1]) {
      return static_cast<double>(i) + 0.5 +
             (x - xs[i]) / (xs[i + 1] - xs[i]);
    }
  }
  return std::nan("");
}

void validate(const PhaseGrid& grid, const RenderOptions& options) {
  P2P_ASSERT_MSG(options.cell_px >= 1 && options.cell_px <= 256,
                 "cell_px must lie in [1, 256]");
  P2P_ASSERT_MSG(!grid.cells.empty(), "cannot render an empty phase grid");
  P2P_ASSERT_MSG(grid.cells.size() == grid.num_x() * grid.num_y(),
                 "phase grid cells do not tile num_x * num_y");
}

/// Appends format_number's bytes for `v` in place — the SVG emitter
/// builds its coordinate attributes through the same allocation-free
/// formatter as the report pipeline, so diagram bytes can never drift
/// from the corpus bytes they are rendered from.
void fmt_into(std::string& out, double v) {
  format_number_into(out, v);
}

std::string fmt(double v) {
  std::string s;
  fmt_into(s, v);
  return s;
}

}  // namespace

namespace {

/// The PPM generator behind render_ppm and write_ppm: emits the header
/// and then one scanline at a time to `sink`, so the file writer's
/// peak memory is a single pixel row, never the image.
void render_ppm_rows(const PhaseGrid& grid,
                     const std::vector<PhaseFrontierPoint>& frontier,
                     const RenderOptions& options,
                     const std::function<void(const std::string&)>& sink) {
  validate(grid, options);
  const std::size_t px = static_cast<std::size_t>(options.cell_px);
  const std::size_t nx = grid.num_x();
  const std::size_t ny = grid.num_y();
  const std::size_t width = nx * px;
  const std::size_t height = ny * px;
  const double scale = std::isnan(options.margin_scale)
                           ? default_margin_scale(grid)
                           : options.margin_scale;
  P2P_ASSERT_MSG(scale > 0 && std::isfinite(scale),
                 "margin_scale must be positive and finite");

  // Frontier marker column (in pixels) per y row, if any.
  std::vector<double> marker(ny, std::nan(""));
  if (options.overlay_frontier) {
    for (const PhaseFrontierPoint& pt : frontier) {
      if (pt.row < ny) {
        const double coord = x_to_cell_coord(grid.x_values, frontier_x(pt));
        if (std::isfinite(coord)) {
          marker[pt.row] = coord * static_cast<double>(px);
        }
      }
    }
  }

  sink("P6\n" + std::to_string(width) + " " + std::to_string(height) +
       "\n255\n");
  std::vector<Rgb> row_colors(nx);
  std::string line;
  for (std::size_t row = 0; row < height; ++row) {
    // Image row 0 is the TOP: the last y value (y grows upward).
    const std::size_t yi = ny - 1 - row / px;
    // One cell_color per cell, not per pixel: the px^2 pixels of a cell
    // reuse the row's colors.
    if (row % px == 0) {
      for (std::size_t xi = 0; xi < nx; ++xi) {
        row_colors[xi] = cell_color(grid.at(yi, xi), scale);
      }
    }
    // The 2px-wide ink marker for this row's frontier estimate.
    long mark_lo = -1, mark_hi = -2;
    if (std::isfinite(marker[yi])) {
      const long center = std::lround(marker[yi]);
      mark_lo = std::max(0L, center - 1);
      mark_hi = std::min(static_cast<long>(width) - 1, center);
    }
    line.clear();
    for (std::size_t col = 0; col < width; ++col) {
      const bool marked = static_cast<long>(col) >= mark_lo &&
                          static_cast<long>(col) <= mark_hi;
      const Rgb c = marked ? kInk : row_colors[col / px];
      line += static_cast<char>(c.r);
      line += static_cast<char>(c.g);
      line += static_cast<char>(c.b);
    }
    sink(line);
  }
}

}  // namespace

std::string render_ppm(const PhaseGrid& grid,
                       const std::vector<PhaseFrontierPoint>& frontier,
                       const RenderOptions& options) {
  std::string out;
  render_ppm_rows(grid, frontier, options,
                  [&](const std::string& bytes) { out += bytes; });
  return out;
}

void write_ppm(const PhaseGrid& grid,
               const std::vector<PhaseFrontierPoint>& frontier,
               const RenderOptions& options, const std::string& path) {
  const bool to_stdout = path.empty() || path == "-";
  std::FILE* file = stdout;
  if (!to_stdout) {
    file = std::fopen(path.c_str(), "wb");
    P2P_ASSERT_MSG(file != nullptr,
                   "cannot open PPM output file \"" + path + "\"");
  }
  render_ppm_rows(grid, frontier, options, [&](const std::string& bytes) {
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), file);
    P2P_ASSERT_MSG(written == bytes.size(),
                   "short write to PPM output file");
  });
  if (to_stdout) {
    P2P_ASSERT_MSG(std::fflush(file) == 0, "short write to stdout");
  } else {
    // fclose flushes, so a full disk can surface there; a truncated
    // diagram must not exit 0.
    P2P_ASSERT_MSG(std::fclose(file) == 0,
                   "short write to PPM output file");
  }
}

std::string render_svg(const PhaseGrid& grid,
                       const std::vector<PhaseFrontierPoint>& frontier,
                       const RenderOptions& options) {
  validate(grid, options);
  const int px = options.cell_px;
  const std::size_t nx = grid.num_x();
  const std::size_t ny = grid.num_y();
  const double scale = std::isnan(options.margin_scale)
                           ? default_margin_scale(grid)
                           : options.margin_scale;
  P2P_ASSERT_MSG(scale > 0 && std::isfinite(scale),
                 "margin_scale must be positive and finite");

  // Layout: title and legend rows on top, y labels left, x labels
  // below the plot. The minimum width keeps the header legible when
  // the plot itself is only a few cells wide.
  const int left = 64, top = 52, bottom = 40, right = 16;
  const int plot_w = static_cast<int>(nx) * px;
  const int plot_h = static_cast<int>(ny) * px;
  const int width = std::max(left + plot_w + right, left + 240);
  const int height = top + plot_h + bottom;

  const std::string title =
      options.title.empty()
          ? grid.y_axis + " vs " + grid.x_axis + " phase diagram"
          : options.title;

  const auto rgb = [](Rgb c) {
    return "rgb(" + std::to_string(c.r) + "," + std::to_string(c.g) + "," +
           std::to_string(c.b) + ")";
  };
  // Text content is XML-escaped: the title is caller input, and a bare
  // '&' or '<' would make the whole document unparseable.
  const auto xml_escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '&') {
        out += "&amp;";
      } else if (c == '<') {
        out += "&lt;";
      } else if (c == '>') {
        out += "&gt;";
      } else {
        out += c;
      }
    }
    return out;
  };
  std::string out;
  const auto text = [&](double x, double y, const char* anchor,
                        const char* fill, int size, const std::string& s) {
    out += "  <text x=\"";
    fmt_into(out, x);
    out += "\" y=\"";
    fmt_into(out, y);
    out += "\" text-anchor=\"";
    out += anchor;
    out += "\" fill=\"";
    out += fill;
    out += "\" font-family=\"system-ui, sans-serif\" font-size=\"" +
           std::to_string(size) + "\">" + xml_escape(s) + "</text>\n";
  };
  out += "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
         std::to_string(width) + "\" height=\"" + std::to_string(height) +
         "\" viewBox=\"0 0 " + std::to_string(width) + " " +
         std::to_string(height) + "\">\n";
  out += "  <rect width=\"" + std::to_string(width) + "\" height=\"" +
         std::to_string(height) + "\" fill=\"" + kSurface + "\"/>\n";
  text(left, 18, "start", kTextPrimary, 13, title);

  // Verdict legend on its own row under the title: two labeled
  // swatches plus the overlay key (identity is never color alone — the
  // labels carry it; the swatches sit at mid-ramp).
  const int legend_y = 30;
  out += "  <rect x=\"" + std::to_string(left) + "\" y=\"" +
         std::to_string(legend_y) + "\" width=\"10\" height=\"10\" fill=\"" +
         rgb(lerp(kMidpoint, kStablePole, 0.6)) + "\"/>\n";
  text(left + 14, legend_y + 9, "start", kTextSecondary, 11,
              "stable");
  out += "  <rect x=\"" + std::to_string(left + 70) + "\" y=\"" +
         std::to_string(legend_y) + "\" width=\"10\" height=\"10\" fill=\"" +
         rgb(lerp(kMidpoint, kTransientPole, 0.6)) + "\"/>\n";
  text(left + 84, legend_y + 9, "start", kTextSecondary, 11,
              "transient");
  if (options.overlay_frontier) {
    out += "  <line x1=\"" + std::to_string(left + 160) + "\" y1=\"" +
           std::to_string(legend_y + 5) + "\" x2=\"" +
           std::to_string(left + 180) + "\" y2=\"" +
           std::to_string(legend_y + 5) + "\" stroke=\"" + rgb(kInk) +
           "\" stroke-width=\"2\"/>\n";
    text(left + 186, legend_y + 9, "start", kTextSecondary, 11,
                "frontier");
  }

  // Cells, row-major from the top image row (last y value).
  for (std::size_t yi = 0; yi < ny; ++yi) {
    const int y = top + static_cast<int>(ny - 1 - yi) * px;
    for (std::size_t xi = 0; xi < nx; ++xi) {
      out += "  <rect x=\"" +
             std::to_string(left + static_cast<int>(xi) * px) + "\" y=\"" +
             std::to_string(y) + "\" width=\"" + std::to_string(px) +
             "\" height=\"" + std::to_string(px) + "\" fill=\"" +
             rgb(cell_color(grid.at(yi, xi), scale)) + "\"/>\n";
    }
  }

  // Frontier polyline with a surface halo so it separates from both
  // arms of the diverging ramp.
  if (options.overlay_frontier) {
    std::string pts;
    for (const PhaseFrontierPoint& pt : frontier) {
      if (pt.row >= ny) continue;
      const double coord = x_to_cell_coord(grid.x_values, frontier_x(pt));
      if (!std::isfinite(coord)) continue;
      const double x = left + coord * px;
      const double y =
          top + (static_cast<double>(ny - 1 - pt.row) + 0.5) * px;
      if (!pts.empty()) pts += ' ';
      pts += fmt(x) + "," + fmt(y);
    }
    if (!pts.empty()) {
      out += "  <polyline points=\"" + pts + "\" fill=\"none\" stroke=\"" +
             kSurface + "\" stroke-width=\"4\"/>\n";
      out += "  <polyline points=\"" + pts + "\" fill=\"none\" stroke=\"" +
             rgb(kInk) + "\" stroke-width=\"2\"/>\n";
    }
  }

  // Selective axis labels: the axis names plus first/last tick values.
  const int axis_y = top + plot_h;
  text(left, axis_y + 16, "start", kTextSecondary, 11,
              fmt(grid.x_values.front()));
  text(left + plot_w, axis_y + 16, "end", kTextSecondary, 11,
              fmt(grid.x_values.back()));
  text(left + plot_w / 2.0, axis_y + 32, "middle", kTextPrimary, 12,
              grid.x_axis);
  text(left - 6, axis_y - plot_h + 12, "end", kTextSecondary, 11,
              fmt(grid.y_values.back()));
  text(left - 6, axis_y - 2, "end", kTextSecondary, 11,
              fmt(grid.y_values.front()));
  text(left - 6, axis_y - plot_h / 2.0, "end", kTextPrimary, 12,
              grid.y_axis);
  out += "</svg>\n";
  return out;
}

namespace {

/// Two ingested grids are diffable only over identical axes and axis
/// values — both come verbatim from corpora, so exact equality is the
/// right notion of "the same grid point".
void validate_diff_pair(const PhaseGrid& baseline, const PhaseGrid& variant,
                        const RenderOptions& options) {
  validate(baseline, options);
  validate(variant, options);
  P2P_ASSERT_MSG(baseline.x_axis == variant.x_axis &&
                     baseline.y_axis == variant.y_axis,
                 "cannot diff grids over different axes (" + baseline.y_axis +
                     " vs " + baseline.x_axis + " against " + variant.y_axis +
                     " vs " + variant.x_axis + ")");
  P2P_ASSERT_MSG(baseline.x_values == variant.x_values &&
                     baseline.y_values == variant.y_values,
                 "cannot diff grids over different axis values (the two "
                 "corpora were swept over different " +
                     baseline.x_axis + " / " + baseline.y_axis + " points)");
}

/// variant minus baseline simulated occupancy per cell; NaN when either
/// side lacks simulation data there.
std::vector<double> occupancy_diffs(const PhaseGrid& baseline,
                                    const PhaseGrid& variant) {
  std::vector<double> diffs(baseline.cells.size(), std::nan(""));
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    const PhaseCell& b = baseline.cells[i];
    const PhaseCell& v = variant.cells[i];
    if (b.replicas > 0 && v.replicas > 0 &&
        std::isfinite(b.sim_mean_peers) && std::isfinite(v.sim_mean_peers)) {
      diffs[i] = v.sim_mean_peers - b.sim_mean_peers;
    }
  }
  return diffs;
}

/// Largest finite |difference|; 1 when none (flat ramp).
double default_diff_scale(const std::vector<double>& diffs) {
  double scale = 0;
  for (const double d : diffs) {
    if (std::isfinite(d)) scale = std::max(scale, std::abs(d));
  }
  return scale > 0 ? scale : 1;
}

Rgb diff_color(double d, double scale) {
  if (!std::isfinite(d) || d == 0) return kMidpoint;
  const double t = std::sqrt(std::min(1.0, std::abs(d) / scale));
  return d > 0 ? lerp(kMidpoint, kTransientPole, t)
               : lerp(kMidpoint, kStablePole, t);
}

std::string diff_title(const PhaseGrid& baseline, const PhaseGrid& variant,
                       const RenderOptions& options) {
  if (!options.title.empty()) return options.title;
  const std::string who =
      variant.policy.empty() ? "variant" : variant.policy;
  return who + " minus baseline occupancy (" + baseline.y_axis + " vs " +
         baseline.x_axis + ")";
}

}  // namespace

std::string render_diff_ppm(const PhaseGrid& baseline,
                            const PhaseGrid& variant,
                            const RenderOptions& options) {
  validate_diff_pair(baseline, variant, options);
  const std::vector<double> diffs = occupancy_diffs(baseline, variant);
  const double scale = std::isnan(options.margin_scale)
                           ? default_diff_scale(diffs)
                           : options.margin_scale;
  P2P_ASSERT_MSG(scale > 0 && std::isfinite(scale),
                 "margin_scale must be positive and finite");
  const std::size_t px = static_cast<std::size_t>(options.cell_px);
  const std::size_t nx = baseline.num_x();
  const std::size_t ny = baseline.num_y();
  const std::size_t width = nx * px;
  const std::size_t height = ny * px;

  std::string out = "P6\n" + std::to_string(width) + " " +
                    std::to_string(height) + "\n255\n";
  std::vector<Rgb> row_colors(nx);
  for (std::size_t row = 0; row < height; ++row) {
    const std::size_t yi = ny - 1 - row / px;
    if (row % px == 0) {
      for (std::size_t xi = 0; xi < nx; ++xi) {
        row_colors[xi] = diff_color(diffs[yi * nx + xi], scale);
      }
    }
    for (std::size_t col = 0; col < width; ++col) {
      const Rgb c = row_colors[col / px];
      out += static_cast<char>(c.r);
      out += static_cast<char>(c.g);
      out += static_cast<char>(c.b);
    }
  }
  return out;
}

std::string render_diff_svg(const PhaseGrid& baseline,
                            const PhaseGrid& variant,
                            const RenderOptions& options) {
  validate_diff_pair(baseline, variant, options);
  const std::vector<double> diffs = occupancy_diffs(baseline, variant);
  const double scale = std::isnan(options.margin_scale)
                           ? default_diff_scale(diffs)
                           : options.margin_scale;
  P2P_ASSERT_MSG(scale > 0 && std::isfinite(scale),
                 "margin_scale must be positive and finite");
  const int px = options.cell_px;
  const std::size_t nx = baseline.num_x();
  const std::size_t ny = baseline.num_y();

  const int left = 64, top = 52, bottom = 40, right = 16;
  const int plot_w = static_cast<int>(nx) * px;
  const int plot_h = static_cast<int>(ny) * px;
  const int width = std::max(left + plot_w + right, left + 240);
  const int height = top + plot_h + bottom;

  const auto rgb = [](Rgb c) {
    return "rgb(" + std::to_string(c.r) + "," + std::to_string(c.g) + "," +
           std::to_string(c.b) + ")";
  };
  const auto xml_escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '&') {
        out += "&amp;";
      } else if (c == '<') {
        out += "&lt;";
      } else if (c == '>') {
        out += "&gt;";
      } else {
        out += c;
      }
    }
    return out;
  };
  std::string out;
  const auto text = [&](double x, double y, const char* anchor,
                        const char* fill, int size, const std::string& s) {
    out += "  <text x=\"";
    fmt_into(out, x);
    out += "\" y=\"";
    fmt_into(out, y);
    out += "\" text-anchor=\"";
    out += anchor;
    out += "\" fill=\"";
    out += fill;
    out += "\" font-family=\"system-ui, sans-serif\" font-size=\"" +
           std::to_string(size) + "\">" + xml_escape(s) + "</text>\n";
  };
  out += "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
         std::to_string(width) + "\" height=\"" + std::to_string(height) +
         "\" viewBox=\"0 0 " + std::to_string(width) + " " +
         std::to_string(height) + "\">\n";
  out += "  <rect width=\"" + std::to_string(width) + "\" height=\"" +
         std::to_string(height) + "\" fill=\"" + kSurface + "\"/>\n";
  text(left, 18, "start", kTextPrimary, 13,
       diff_title(baseline, variant, options));

  // Legend: the two difference arms (labels carry the meaning, the
  // swatches sit at mid-ramp like the verdict legend's).
  const int legend_y = 30;
  out += "  <rect x=\"" + std::to_string(left) + "\" y=\"" +
         std::to_string(legend_y) + "\" width=\"10\" height=\"10\" fill=\"" +
         rgb(lerp(kMidpoint, kStablePole, 0.6)) + "\"/>\n";
  text(left + 14, legend_y + 9, "start", kTextSecondary, 11,
       "fewer peers");
  out += "  <rect x=\"" + std::to_string(left + 90) + "\" y=\"" +
         std::to_string(legend_y) + "\" width=\"10\" height=\"10\" fill=\"" +
         rgb(lerp(kMidpoint, kTransientPole, 0.6)) + "\"/>\n";
  text(left + 104, legend_y + 9, "start", kTextSecondary, 11,
       "more peers");

  for (std::size_t yi = 0; yi < ny; ++yi) {
    const int y = top + static_cast<int>(ny - 1 - yi) * px;
    for (std::size_t xi = 0; xi < nx; ++xi) {
      out += "  <rect x=\"" +
             std::to_string(left + static_cast<int>(xi) * px) + "\" y=\"" +
             std::to_string(y) + "\" width=\"" + std::to_string(px) +
             "\" height=\"" + std::to_string(px) + "\" fill=\"" +
             rgb(diff_color(diffs[yi * nx + xi], scale)) + "\"/>\n";
    }
  }

  const int axis_y = top + plot_h;
  text(left, axis_y + 16, "start", kTextSecondary, 11,
       fmt(baseline.x_values.front()));
  text(left + plot_w, axis_y + 16, "end", kTextSecondary, 11,
       fmt(baseline.x_values.back()));
  text(left + plot_w / 2.0, axis_y + 32, "middle", kTextPrimary, 12,
       baseline.x_axis);
  text(left - 6, axis_y - plot_h + 12, "end", kTextSecondary, 11,
       fmt(baseline.y_values.back()));
  text(left - 6, axis_y - 2, "end", kTextSecondary, 11,
       fmt(baseline.y_values.front()));
  text(left - 6, axis_y - plot_h / 2.0, "end", kTextPrimary, 12,
       baseline.y_axis);
  out += "</svg>\n";
  return out;
}

namespace {

/// Largest finite |margin| over the leaves; 1 when none (flat ramp).
double default_box_margin_scale(const BoxGrid& grid) {
  double scale = 0;
  for (const PhaseBox& b : grid.boxes) {
    if (std::isfinite(b.margin)) scale = std::max(scale, std::abs(b.margin));
  }
  return scale > 0 ? scale : 1;
}

Rgb box_color(const PhaseBox& box, double scale, bool overlay) {
  // Non-uniform leaves are the frontier cover: the subdivision stopped
  // (depth or tolerance cap) while their corners still disagreed, so
  // they play the role the dense renderers' ink overlay plays.
  if (overlay && !box.uniform) return kInk;
  const double m = std::isfinite(box.margin) ? std::abs(box.margin) : 0;
  const double t = std::sqrt(std::min(1.0, m / scale));
  switch (box.verdict) {
    case Stability::kPositiveRecurrent:
      return lerp(kMidpoint, kStablePole, t);
    case Stability::kTransient:
      return lerp(kMidpoint, kTransientPole, t);
    case Stability::kBorderline:
      return kMidpoint;
  }
  P2P_ASSERT(false);
  return kMidpoint;
}

struct BoxPlotGeometry {
  std::size_t width = 0, height = 0;  // plot pixels
  double scale = 0;                   // resolved margin scale
};

BoxPlotGeometry box_geometry(const BoxGrid& grid,
                             const RenderOptions& options) {
  P2P_ASSERT_MSG(options.cell_px >= 1 && options.cell_px <= 256,
                 "cell_px must lie in [1, 256]");
  P2P_ASSERT_MSG(!grid.boxes.empty(), "cannot render an empty box grid");
  BoxPlotGeometry g;
  // cell_px pixels per FINEST leaf: the raster resolves every box the
  // archive resolved, nothing finer.
  const double nx = (grid.x_max - grid.x_min) / grid.min_ext_x;
  const double ny = (grid.y_max - grid.y_min) / grid.min_ext_y;
  P2P_ASSERT_MSG(nx <= 8192 && ny <= 8192,
                 "box grid spans more than 8192 finest-leaf widths; "
                 "render with a larger tolerance archive");
  g.width = static_cast<std::size_t>(std::lround(nx)) *
            static_cast<std::size_t>(options.cell_px);
  g.height = static_cast<std::size_t>(std::lround(ny)) *
             static_cast<std::size_t>(options.cell_px);
  g.scale = std::isnan(options.margin_scale)
                ? default_box_margin_scale(grid)
                : options.margin_scale;
  P2P_ASSERT_MSG(g.scale > 0 && std::isfinite(g.scale),
                 "margin_scale must be positive and finite");
  return g;
}

}  // namespace

std::string render_boxes_ppm(const BoxGrid& grid,
                             const RenderOptions& options) {
  const BoxPlotGeometry g = box_geometry(grid, options);

  // Physical -> pixel, shared-edge safe: two boxes that share an edge
  // coordinate snap it to the same pixel column, so the tiling leaves
  // no seams and no bleed whatever the subdivision pattern.
  const auto x_px = [&](double x) {
    return std::lround((x - grid.x_min) / (grid.x_max - grid.x_min) *
                       static_cast<double>(g.width));
  };
  const auto y_px = [&](double y) {
    return std::lround((y - grid.y_min) / (grid.y_max - grid.y_min) *
                       static_cast<double>(g.height));
  };

  std::vector<Rgb> image(g.width * g.height, kMidpoint);
  for (const PhaseBox& b : grid.boxes) {
    const Rgb c = box_color(b, g.scale, options.overlay_frontier);
    const long px0 = std::clamp(x_px(b.x0), 0L, static_cast<long>(g.width));
    const long px1 =
        std::clamp(x_px(b.x0 + b.ext_x), 0L, static_cast<long>(g.width));
    const long py0 = std::clamp(y_px(b.y0), 0L, static_cast<long>(g.height));
    const long py1 =
        std::clamp(y_px(b.y0 + b.ext_y), 0L, static_cast<long>(g.height));
    for (long py = py0; py < py1; ++py) {
      // Image row 0 is the TOP: y grows upward like a plot.
      const std::size_t row = g.height - 1 - static_cast<std::size_t>(py);
      for (long px = px0; px < px1; ++px) {
        image[row * g.width + static_cast<std::size_t>(px)] = c;
      }
    }
  }

  std::string out = "P6\n" + std::to_string(g.width) + " " +
                    std::to_string(g.height) + "\n255\n";
  out.reserve(out.size() + image.size() * 3);
  for (const Rgb& c : image) {
    out += static_cast<char>(c.r);
    out += static_cast<char>(c.g);
    out += static_cast<char>(c.b);
  }
  return out;
}

std::string render_boxes_svg(const BoxGrid& grid,
                             const RenderOptions& options) {
  const BoxPlotGeometry g = box_geometry(grid, options);
  const int left = 64, top = 52, bottom = 40, right = 16;
  const int plot_w = static_cast<int>(g.width);
  const int plot_h = static_cast<int>(g.height);
  const int width = std::max(left + plot_w + right, left + 240);
  const int height = top + plot_h + bottom;

  const std::string title =
      options.title.empty()
          ? grid.y_axis + " vs " + grid.x_axis + " adaptive phase diagram"
          : options.title;

  const auto rgb = [](Rgb c) {
    return "rgb(" + std::to_string(c.r) + "," + std::to_string(c.g) + "," +
           std::to_string(c.b) + ")";
  };
  const auto xml_escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '&') {
        out += "&amp;";
      } else if (c == '<') {
        out += "&lt;";
      } else if (c == '>') {
        out += "&gt;";
      } else {
        out += c;
      }
    }
    return out;
  };
  std::string out;
  const auto text = [&](double x, double y, const char* anchor,
                        const char* fill, int size, const std::string& s) {
    out += "  <text x=\"";
    fmt_into(out, x);
    out += "\" y=\"";
    fmt_into(out, y);
    out += "\" text-anchor=\"";
    out += anchor;
    out += "\" fill=\"";
    out += fill;
    out += "\" font-family=\"system-ui, sans-serif\" font-size=\"" +
           std::to_string(size) + "\">" + xml_escape(s) + "</text>\n";
  };
  out += "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
         std::to_string(width) + "\" height=\"" + std::to_string(height) +
         "\" viewBox=\"0 0 " + std::to_string(width) + " " +
         std::to_string(height) + "\">\n";
  out += "  <rect width=\"" + std::to_string(width) + "\" height=\"" +
         std::to_string(height) + "\" fill=\"" + kSurface + "\"/>\n";
  text(left, 18, "start", kTextPrimary, 13, title);

  // Verdict legend plus the frontier-cover swatch (a filled square, not
  // a line: the cover is an area here, not a polyline).
  const int legend_y = 30;
  out += "  <rect x=\"" + std::to_string(left) + "\" y=\"" +
         std::to_string(legend_y) + "\" width=\"10\" height=\"10\" fill=\"" +
         rgb(lerp(kMidpoint, kStablePole, 0.6)) + "\"/>\n";
  text(left + 14, legend_y + 9, "start", kTextSecondary, 11, "stable");
  out += "  <rect x=\"" + std::to_string(left + 70) + "\" y=\"" +
         std::to_string(legend_y) + "\" width=\"10\" height=\"10\" fill=\"" +
         rgb(lerp(kMidpoint, kTransientPole, 0.6)) + "\"/>\n";
  text(left + 84, legend_y + 9, "start", kTextSecondary, 11, "transient");
  if (options.overlay_frontier) {
    out += "  <rect x=\"" + std::to_string(left + 160) + "\" y=\"" +
           std::to_string(legend_y) + "\" width=\"10\" height=\"10\" fill=\"" +
           rgb(kInk) + "\"/>\n";
    text(left + 174, legend_y + 9, "start", kTextSecondary, 11, "frontier");
  }

  // One rect per leaf at exact coordinates: shared edges are shared
  // numbers, so the tiling is seamless at any zoom — the native
  // variable-resolution rendering.
  const double sx = static_cast<double>(plot_w) / (grid.x_max - grid.x_min);
  const double sy = static_cast<double>(plot_h) / (grid.y_max - grid.y_min);
  for (const PhaseBox& b : grid.boxes) {
    const double x = left + (b.x0 - grid.x_min) * sx;
    const double y = top + (grid.y_max - (b.y0 + b.ext_y)) * sy;
    out += "  <rect x=\"";
    fmt_into(out, x);
    out += "\" y=\"";
    fmt_into(out, y);
    out += "\" width=\"";
    fmt_into(out, b.ext_x * sx);
    out += "\" height=\"";
    fmt_into(out, b.ext_y * sy);
    out += "\" fill=\"" +
           rgb(box_color(b, g.scale, options.overlay_frontier)) + "\"/>\n";
  }

  const int axis_y = top + plot_h;
  text(left, axis_y + 16, "start", kTextSecondary, 11, fmt(grid.x_min));
  text(left + plot_w, axis_y + 16, "end", kTextSecondary, 11,
       fmt(grid.x_max));
  text(left + plot_w / 2.0, axis_y + 32, "middle", kTextPrimary, 12,
       grid.x_axis);
  text(left - 6, axis_y - plot_h + 12, "end", kTextSecondary, 11,
       fmt(grid.y_max));
  text(left - 6, axis_y - 2, "end", kTextSecondary, 11, fmt(grid.y_min));
  text(left - 6, axis_y - plot_h / 2.0, "end", kTextPrimary, 12,
       grid.y_axis);
  out += "</svg>\n";
  return out;
}

}  // namespace p2p::analysis
