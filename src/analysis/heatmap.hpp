// Dependency-free phase-diagram renderers: binary PPM (P6) and SVG.
//
// The verdict margin is a polarity around the Theorem-1 frontier, so
// cells wear a diverging palette: a blue arm for positive-recurrent
// cells, a red arm for transient ones, and a neutral near-surface
// midpoint at margin 0 / borderline — never a rainbow. Shade encodes
// |margin| (square-root ramp, saturating at `margin_scale`), so the
// frontier reads as the light seam between the two arms, and the
// extracted frontier overlay is drawn in near-black ink with a surface
// halo so it separates from both arms.
//
// Rendering is pure arithmetic over the ingested grid (no wall clock,
// no transcendentals beyond sqrt, numbers via format_number), so the
// emitted bytes are identical across runs, thread counts and platforms
// — the golden tests and the CI corpus job pin them.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "analysis/phase_diagram.hpp"

namespace p2p::analysis {

struct RenderOptions {
  /// Square pixels per grid cell (PPM) / SVG user units per cell.
  int cell_px = 12;
  /// Draw the extracted frontier (best available estimate per row:
  /// re-bisected value, else margin interpolation, else the bracket
  /// midpoint).
  bool overlay_frontier = true;
  /// |margin| that saturates the color ramp; NaN = the grid's largest
  /// finite |margin| (deterministic).
  double margin_scale = std::nan("");
  /// SVG title line; empty derives "<y_axis> vs <x_axis> phase diagram".
  std::string title;
};

/// Binary PPM (P6), row 0 of the image at the TOP: the grid's last y
/// value. y increases upward like a plot, x left to right in grid
/// order. Image size: (num_x * cell_px) x (num_y * cell_px). Bands of
/// scanlines render on `threads` OS threads (0 = all hardware cores);
/// the bytes are the same at any thread count.
std::string render_ppm(const PhaseGrid& grid,
                       const std::vector<PhaseFrontierPoint>& frontier,
                       const RenderOptions& options = {}, int threads = 0);

/// Streams the same bytes straight to `path` ("-" or empty = stdout),
/// one band of scanlines at a time, in order, with a bounded number of
/// bands in flight — a million-cell diagram at the default cell_px
/// would be a ~400 MB string, which a plotting CLI has no business
/// holding. Aborts on short writes.
void write_ppm(const PhaseGrid& grid,
               const std::vector<PhaseFrontierPoint>& frontier,
               const RenderOptions& options, const std::string& path,
               int threads = 0);

/// Standalone SVG with axis names, first/last tick labels (selective,
/// never a label per cell), a two-swatch verdict legend, and the
/// frontier polyline. Same cell colors and orientation as the PPM.
std::string render_svg(const PhaseGrid& grid,
                       const std::vector<PhaseFrontierPoint>& frontier,
                       const RenderOptions& options = {});

/// Policy-vs-baseline difference diagram: per cell, the simulated
/// occupancy of `variant` minus `baseline` on the same diverging
/// palette — blue arm where the variant holds FEWER peers than the
/// baseline, red arm where more, neutral midpoint where either side
/// lacks simulation data (or the difference is exactly zero). Shade is
/// the sqrt ramp over |difference|, saturating at margin_scale (NaN =
/// the largest finite |difference|, deterministic). Theorem 14 says
/// work-conserving policies share one stability region, so a
/// frontier-straddling red/blue band is the signal worth looking at.
/// Aborts when the grids disagree on axes or axis values (a diff of
/// unaligned grids would be silently meaningless). overlay_frontier is
/// ignored: verdict frontiers belong to the per-grid renderers.
std::string render_diff_ppm(const PhaseGrid& baseline,
                            const PhaseGrid& variant,
                            const RenderOptions& options = {});

/// The SVG face of the same difference diagram: identical cell colors
/// and orientation, fewer/more-peers legend swatches, axis labels as in
/// render_svg. The default title names the variant's policy token.
std::string render_diff_svg(const PhaseGrid& baseline,
                            const PhaseGrid& variant,
                            const RenderOptions& options = {});

/// Multi-resolution diagram of an adaptive box grid: every leaf box is
/// painted natively at its own physical size — one rect per leaf, no
/// resampling onto a dense lattice — with the same diverging verdict
/// palette and orientation as render_ppm. Non-uniform leaves (the boxes
/// whose corner verdicts still disagreed at the depth/tolerance cap)
/// ARE the frontier cover, so overlay_frontier paints them in the same
/// near-black ink the dense frontier overlay uses. cell_px is the pixel
/// width of the FINEST leaf; coarser leaves scale up proportionally.
/// Box edges land on exact pixel boundaries for lattice-aligned
/// archives, so adjacent boxes never bleed.
std::string render_boxes_ppm(const BoxGrid& grid,
                             const RenderOptions& options = {});

/// The SVG face of the same multi-resolution diagram: one rect per leaf
/// at exact (unrounded) coordinates, verdict + frontier legend, axis
/// labels as in render_svg.
std::string render_boxes_svg(const BoxGrid& grid,
                             const RenderOptions& options = {});

namespace detail {

/// A color channel value v >= 0 rounded to the nearest integer, halves
/// up: std::lround on that domain, bit for bit, without the libm call.
/// v - whole is exact (v and whole are within a factor of two, or whole
/// is 0), so the halfway test sees the true remainder.
inline int round_channel(double v) {
  const int whole = static_cast<int>(v);
  return whole + (v - whole >= 0.5 ? 1 : 0);
}

}  // namespace detail

}  // namespace p2p::analysis
