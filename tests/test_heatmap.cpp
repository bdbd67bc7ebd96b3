// Renderer goldens: the PPM bytes and SVG structure are pinned for a
// hand-built grid (the rendering is pure arithmetic, so the bytes are
// part of the corpus contract), and the frontier overlay must land on
// the closed-form boundary lambda* = 5 Us of the Example-1 slice.
#include "analysis/heatmap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/phase_diagram.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::analysis {
namespace {

using engine::parse_grid;
using engine::sweep_report;
using engine::SweepOptions;

/// A hand-built 2 x 2 grid: bottom row stable (margins 1 and 0.25),
/// top row transient (margin -1) and borderline (margin 0).
PhaseGrid tiny_grid() {
  PhaseGrid grid;
  grid.x_axis = "us";
  grid.y_axis = "lambda";
  grid.x_values = {0.5, 1.0};
  grid.y_values = {1.0, 2.0};
  const auto cell = [](Stability verdict, double margin) {
    PhaseCell c;
    c.verdict = verdict;
    c.margin = margin;
    return c;
  };
  grid.cells = {
      cell(Stability::kPositiveRecurrent, 1.0),   // (y0, x0)
      cell(Stability::kPositiveRecurrent, 0.25),  // (y0, x1)
      cell(Stability::kTransient, -1.0),          // (y1, x0)
      cell(Stability::kBorderline, 0.0),          // (y1, x1)
  };
  return grid;
}

TEST(RenderPpm, GoldenBytesForTinyGrid) {
  RenderOptions options;
  options.cell_px = 1;
  options.margin_scale = 1.0;
  options.overlay_frontier = false;
  const std::string ppm = render_ppm(tiny_grid(), {}, options);

  // margin_scale 1 and the sqrt ramp pin every pixel exactly:
  //   |m| = 1    -> t = 1   -> the pole color itself
  //   |m| = 0.25 -> t = 0.5 -> midpoint halfway to the pole
  //   borderline -> neutral midpoint
  // Image row 0 is the TOP = last y value (transient row).
  const auto px = [](int r, int g, int b) {
    std::string s;
    s += static_cast<char>(r);
    s += static_cast<char>(g);
    s += static_cast<char>(b);
    return s;
  };
  std::string want = "P6\n2 2\n255\n";
  want += px(0x7f, 0x1f, 0x1e);  // transient pole (t = 1)
  want += px(0xf0, 0xef, 0xec);  // borderline -> neutral midpoint
  want += px(0x0d, 0x36, 0x6b);  // stable pole (t = 1)
  // t = 0.5 between midpoint 0xf0,0xef,0xec and pole 0x0d,0x36,0x6b:
  // lround(0xf0 + (0x0d - 0xf0) * 0.5) = 127 (ties away from zero),
  // 147, 172.
  want += px(127, 147, 172);
  EXPECT_EQ(ppm, want);
}

TEST(RenderPpm, FrontierMarkerPaintsInkAtTheEstimate) {
  PhaseGrid grid = tiny_grid();
  PhaseFrontierPoint pt;
  pt.row = 1;  // the transient/borderline row
  pt.y = 2.0;
  pt.bracketed = true;
  pt.x_lo = 0.5;
  pt.x_hi = 1.0;
  pt.value = 0.75;  // halfway: cell-center coordinate 1.0 of [0, 2)

  RenderOptions options;
  options.cell_px = 8;
  options.margin_scale = 1.0;
  const std::string ppm = render_ppm(grid, {pt}, options);
  const std::string header = "P6\n16 16\n255\n";
  ASSERT_EQ(ppm.substr(0, header.size()), header);

  // Row 1 of the grid is the TOP half of the image. The marker spans
  // pixel columns 7..8 (center 8 at coordinate 1.0 * cell_px).
  const auto pixel = [&](int row, int col) {
    const std::size_t off = header.size() + 3 * (row * 16 + col);
    return std::string(ppm, off, 3);
  };
  const std::string ink = {0x0b, 0x0b, 0x0b};
  EXPECT_EQ(pixel(0, 7), ink);
  EXPECT_EQ(pixel(0, 8), ink);
  EXPECT_NE(pixel(0, 5), ink);
  EXPECT_NE(pixel(0, 10), ink);
  // The stable (bottom) rows carry no marker.
  EXPECT_NE(pixel(12, 7), ink);
  EXPECT_NE(pixel(12, 8), ink);
}

TEST(RenderSvg, StructureAndLabels) {
  PhaseGrid grid = tiny_grid();
  PhaseFrontierPoint pt;
  pt.row = 1;
  pt.y = 2.0;
  pt.bracketed = true;
  pt.x_lo = 0.5;
  pt.x_hi = 1.0;
  pt.value = 0.75;

  RenderOptions options;
  options.cell_px = 10;
  options.margin_scale = 1.0;
  const std::string svg = render_svg(grid, {pt}, options);

  EXPECT_EQ(svg.rfind("<svg xmlns=\"http://www.w3.org/2000/svg\"", 0), 0u);
  // Background + 2 legend swatches + 4 cells.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, 7u);
  // Frontier: surface halo + ink line.
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
  EXPECT_NE(svg.find("stroke-width=\"4\""), std::string::npos);
  EXPECT_NE(svg.find("stroke-width=\"2\""), std::string::npos);
  // Axis names and legend labels (identity never by color alone).
  EXPECT_NE(svg.find(">us</text>"), std::string::npos);
  EXPECT_NE(svg.find(">lambda</text>"), std::string::npos);
  EXPECT_NE(svg.find(">stable</text>"), std::string::npos);
  EXPECT_NE(svg.find(">transient</text>"), std::string::npos);
  EXPECT_NE(svg.find(">frontier</text>"), std::string::npos);
  // Selective tick labels: first/last of each axis.
  EXPECT_NE(svg.find(">0.5</text>"), std::string::npos);
  EXPECT_NE(svg.find(">1</text>"), std::string::npos);
  EXPECT_NE(svg.find(">2</text>"), std::string::npos);
  EXPECT_EQ(svg.substr(svg.size() - 7), "</svg>\n");
}

TEST(RenderSvg, DeterministicBytes) {
  const PhaseGrid grid = tiny_grid();
  EXPECT_EQ(render_svg(grid, {}, {}), render_svg(grid, {}, {}));
  EXPECT_EQ(render_ppm(grid, {}, {}), render_ppm(grid, {}, {}));
}

TEST(RenderOverlay, LandsOnTheExampleOneClosedForm) {
  // Theory-only Example-1 slice: the overlay marker in each lambda row
  // must sit at the pixel of us* = lambda / 5 (lambda* = 5 Us
  // inverted), to within the marker's own width.
  SweepOptions options;
  options.horizon = 10;
  options.theory_only = true;
  const engine::ReportTable table = engine::read_report(sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;lambda=2,4,6;us=0.2:1.7:16"),
      options));
  const PhaseGrid grid = phase_grid_of(table);  // x=us, y=lambda
  ASSERT_EQ(grid.x_axis, "us");
  const auto frontier = extract_frontier(grid, 1e-6);

  const int px = 10;
  RenderOptions render;
  render.cell_px = px;
  const std::string ppm = render_ppm(grid, frontier, render);
  const std::string header = "P6\n160 30\n255\n";
  ASSERT_EQ(ppm.substr(0, header.size()), header);
  const std::string ink = {0x0b, 0x0b, 0x0b};

  const double x0 = grid.x_values.front();
  const double dx = grid.x_values[1] - grid.x_values[0];
  for (std::size_t yi = 0; yi < 3; ++yi) {
    const double lambda = grid.y_values[yi];
    const double us_star = lambda / 5.0;
    // Cell-center pixel of us* under uniform spacing.
    const double coord = (us_star - x0) / dx + 0.5;
    const long expect_col = std::lround(coord * px);
    // Any pixel row of this cell row works; take its middle line.
    const std::size_t img_row = (3 - 1 - yi) * px + px / 2;
    long found = -1;
    for (long col = 0; col < 160; ++col) {
      const std::size_t off = header.size() + 3 * (img_row * 160 + col);
      if (ppm.compare(off, 3, ink) == 0) {
        found = col;
        break;
      }
    }
    ASSERT_GE(found, 0) << "no marker in lambda row " << lambda;
    EXPECT_LE(std::abs(found - (expect_col - 1)), 2)
        << "lambda " << lambda << ": marker at " << found << ", expected ~"
        << expect_col - 1;
  }
}

TEST(RenderPpm, BandsGiveTheSameBytesAtEveryThreadCount) {
  // A 200 x 300 theory grid renders in tens of scanline bands at every
  // thread count; at cell_px 3 most band edges fall inside a cell row.
  // The bytes must not move with the thread count, write_ppm must
  // stream exactly render_ppm's bytes, and every cell must still be a
  // solid cell_px square except where the frontier marker inks it.
  SweepOptions options;
  options.theory_only = true;
  const PhaseGrid grid = engine::phase_grid_of(
      sweep_report(parse_grid("lambda=0.5:3.0:300;us=0.2:1.7:200"), options));
  ASSERT_EQ(grid.num_x(), 200u);
  ASSERT_EQ(grid.num_y(), 300u);
  const auto frontier = extract_frontier(grid, 1e-3, 4);
  const std::string path = ::testing::TempDir() + "heatmap_bands.ppm";
  const std::string ink = {0x0b, 0x0b, 0x0b};
  for (const int px : {1, 3}) {
    RenderOptions render;
    render.cell_px = px;
    ASSERT_TRUE(render.overlay_frontier);
    const std::string want = render_ppm(grid, frontier, render, 1);
    const std::string header = "P6\n" + std::to_string(200 * px) + " " +
                               std::to_string(300 * px) + "\n255\n";
    ASSERT_EQ(want.size(), header.size() + 3u * 200 * 300 * px * px);
    ASSERT_EQ(want.substr(0, header.size()), header);
    const std::size_t line = 3u * 200 * px;
    std::size_t inked = 0;
    for (std::size_t yi = 0; yi < 300; ++yi) {
      const std::size_t top = header.size() + yi * px * line;
      for (int r = 1; r < px; ++r) {
        ASSERT_EQ(want.compare(top + r * line, line, want, top, line), 0)
            << "cell row " << yi << " scanline " << r;
      }
      for (std::size_t xi = 0; xi < 200; ++xi) {
        std::string color;
        for (int k = 0; k < px; ++k) {
          const std::string pixel = want.substr(top + 3 * (xi * px + k), 3);
          if (pixel == ink) {
            ++inked;
          } else if (color.empty()) {
            color = pixel;
          } else {
            ASSERT_EQ(pixel, color) << "cell (" << yi << ", " << xi << ")";
          }
        }
      }
    }
    EXPECT_GT(inked, 0u);
    for (const int threads : {2, 4, 8}) {
      EXPECT_EQ(render_ppm(grid, frontier, render, threads), want)
          << "cell_px " << px << ", threads " << threads;
    }
    for (const int threads : {1, 4}) {
      write_ppm(grid, frontier, render, path, threads);
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      std::string got(want.size() + 1, '\0');
      got.resize(std::fread(got.data(), 1, got.size(), f));
      std::fclose(f);
      EXPECT_EQ(got, want) << "write_ppm, cell_px " << px << ", threads "
                           << threads;
    }
  }
  std::remove(path.c_str());
}

TEST(RoundChannel, EqualsLroundOnEveryPaletteRamp) {
  // lerp rounds x + (y - x) * t for channels x, y of the palette (the
  // midpoint, both poles, ink) and t in [0, 1]; the inline rounding must
  // be std::lround there, halfway values included.
  const int channels[] = {0xf0, 0xef, 0xec, 0x0d, 0x36,
                          0x6b, 0x7f, 0x1f, 0x1e, 0x0b};
  const auto expect_lround = [](double v) {
    ASSERT_EQ(detail::round_channel(v), std::lround(v)) << "v = " << v;
  };
  constexpr int kSteps = 20000;
  std::size_t exact_halves = 0;
  for (const int x : channels) {
    for (const int y : channels) {
      for (int i = 0; i <= kSteps; ++i) {
        const double t = static_cast<double>(i) / kSteps;
        expect_lround(x + (y - x) * t);
      }
      if (x == y) continue;
      // Every t that puts the value on k + 0.5, and its neighbours.
      for (int k = std::min(x, y); k < std::max(x, y); ++k) {
        const double t_half = (k + 0.5 - x) / (y - x);
        for (const double t : {std::nextafter(t_half, 0.0), t_half,
                               std::nextafter(t_half, 1.0)}) {
          if (t < 0 || t > 1) continue;
          const double v = x + (y - x) * t;
          exact_halves += v == k + 0.5;
          expect_lround(v);
        }
      }
    }
  }
  EXPECT_GT(exact_halves, 0u);
  for (int k = 0; k < 256; ++k) {
    for (const double v : {static_cast<double>(k), k + 0.5,
                           std::nextafter(k + 0.5, 0.0),
                           std::nextafter(k + 0.5, 256.0)}) {
      expect_lround(v);
    }
  }
}

TEST(RenderDeath, EmptyGridAborts) {
  PhaseGrid grid;
  grid.x_axis = "us";
  grid.y_axis = "lambda";
  EXPECT_DEATH(render_ppm(grid, {}, {}), "empty");
  EXPECT_DEATH(render_svg(grid, {}, {}), "empty");
}

TEST(RenderDeath, AbsurdCellSizeAborts) {
  RenderOptions options;
  options.cell_px = 0;
  EXPECT_DEATH(render_ppm(tiny_grid(), {}, options), "cell_px");
  options.cell_px = 100000;
  EXPECT_DEATH(render_svg(tiny_grid(), {}, options), "cell_px");
}

}  // namespace
}  // namespace p2p::analysis
