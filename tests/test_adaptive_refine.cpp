// The adaptive refinement loop's contract (engine/refine.hpp): leaf
// verdicts agree with a dense sweep at matched resolution wherever a
// leaf claims uniformity, the emitted bytes are invariant across the
// threads x chunk matrix, depth 0 degenerates to the dense pipeline row
// for row, and the multi-resolution schema round-trips through the
// ingestion side (engine/csv_reader.hpp -> analysis::build_box_grid)
// with corrupt archives dying loudly, naming the offending row.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/phase_diagram.hpp"
#include "core/model.hpp"
#include "core/stability.hpp"
#include "engine/csv_reader.hpp"
#include "engine/refine.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

struct AdaptiveRun {
  std::string out;
  AdaptiveSummary summary;
};

AdaptiveRun adaptive_report(const SweepGrid& grid, const SweepOptions& options,
                            const AdaptiveOptions& adaptive,
                            ReportFormat format = ReportFormat::kCsv) {
  AdaptiveRun run;
  ReportWriter writer(&run.out, format, adaptive_columns(grid, options));
  run.summary = run_adaptive_stream(grid, options, adaptive, writer);
  writer.finish();
  return run;
}

/// The fine vertex lattice run_adaptive_stream subdivides `coarse` into
/// at max_depth (scale = 2^max_depth), computed with the engine's exact
/// interpolation expression so a dense sweep over these values evaluates
/// bit-identical parameter points.
std::vector<double> fine_lattice(const std::vector<double>& coarse,
                                 int max_depth) {
  const std::uint64_t scale = std::uint64_t{1} << max_depth;
  std::vector<double> fine;
  for (std::size_t ci = 0; ci + 1 < coarse.size(); ++ci) {
    for (std::uint64_t f = 0; f < scale; ++f) {
      fine.push_back(f == 0 ? coarse[ci]
                            : coarse[ci] + (coarse[ci + 1] - coarse[ci]) *
                                               (static_cast<double>(f) /
                                                static_cast<double>(scale)));
    }
  }
  fine.push_back(coarse.back());
  return fine;
}

std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> values;
  for (int i = 0; i < n; ++i) {
    values.push_back(lo + (hi - lo) * i / (n - 1));
  }
  return values;
}

TEST(ParseAdaptive, DepthAloneAndDepthColonTol) {
  const AdaptiveOptions plain = parse_adaptive("4");
  EXPECT_EQ(plain.max_depth, 4);
  EXPECT_EQ(plain.tol, 0.0);
  const AdaptiveOptions with_tol = parse_adaptive("3:0.05");
  EXPECT_EQ(with_tol.max_depth, 3);
  EXPECT_EQ(with_tol.tol, 0.05);
  EXPECT_EQ(parse_adaptive("0").max_depth, 0);
}

TEST(ParseAdaptive, NegativeZeroToleranceIsPositiveZero) {
  // --summary spells tol with format_number, which keeps the sign of
  // -0: the two specs must parse to bit-identical options, so one run
  // archives the same bytes under either spelling.
  const AdaptiveOptions negative = parse_adaptive("5:-0");
  const AdaptiveOptions positive = parse_adaptive("5:0");
  EXPECT_FALSE(std::signbit(negative.tol));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(negative.tol),
            std::bit_cast<std::uint64_t>(positive.tol));
  EXPECT_EQ(format_number(negative.tol), "0");
  EXPECT_EQ(negative.max_depth, positive.max_depth);
  EXPECT_EQ(negative.max_sim_rounds, positive.max_sim_rounds);
  EXPECT_EQ(std::isnan(negative.sim_threshold),
            std::isnan(positive.sim_threshold));
  EXPECT_FALSE(std::signbit(parse_adaptive("2:-0.0e3").tol));
}

TEST(ParseAdaptiveDeath, MalformedSpecsDieEchoingTheSpec) {
  EXPECT_DEATH(parse_adaptive("banana"), "banana");
  EXPECT_DEATH(parse_adaptive("-1"), "-1");
  EXPECT_DEATH(parse_adaptive("21"), "21");      // > kMaxAdaptiveDepth
  EXPECT_DEATH(parse_adaptive("2.5"), "2\\.5");  // fractional depth
  EXPECT_DEATH(parse_adaptive("4:-0.1"), "-0\\.1");
  EXPECT_DEATH(parse_adaptive("4:inf"), "inf");
}

TEST(AdaptiveColumns, GridSchemaPlusTheBoxBlock) {
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.2:1.7:3;k=2");
  SweepOptions options;
  options.theory_only = true;
  const std::vector<std::string> dense = sweep_columns(options);
  const std::vector<std::string> cols = adaptive_columns(grid, options);
  ASSERT_EQ(cols.size(), dense.size() + 4);
  for (std::size_t i = 0; i < dense.size(); ++i) EXPECT_EQ(cols[i], dense[i]);
  EXPECT_EQ(cols[dense.size()], kBoxDepthColumn);
  EXPECT_EQ(cols[dense.size() + 1], kBoxUniformColumn);
  EXPECT_EQ(cols[dense.size() + 2], std::string(kBoxExtPrefix) + "lambda");
  EXPECT_EQ(cols[dense.size() + 3], std::string(kBoxExtPrefix) + "us");
}

TEST(RunAdaptiveStream, UniformLeavesAgreeWithTheDenseSweepAtMatchedResolution) {
  // Random stable/unstable windows (seeded, so the test is one fixed
  // set): for every vertex of the matched-resolution dense lattice, the
  // adaptive leaf containing it either claims uniformity — then its
  // verdict must equal the dense verdict at that vertex — or sits on the
  // frontier cover at the finest width. Together: the adaptive report
  // loses no verdict information at its claimed resolution.
  // The window distributions keep the Theorem-1 flip inside every draw
  // (for k = 2 the frontier sits near lambda ~ 5 us on this range, so a
  // window reaching lambda >= 2.5 from <= 0.8 straddles it).
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> lambda_lo(0.3, 0.8);
  std::uniform_real_distribution<double> lambda_span(2.2, 3.0);
  std::uniform_real_distribution<double> us_lo(0.2, 0.35);
  std::uniform_real_distribution<double> us_span(0.5, 0.8);
  const int max_depth = 2;
  for (int window = 0; window < 3; ++window) {
    SCOPED_TRACE("window " + std::to_string(window));
    const double l0 = lambda_lo(rng), l1 = l0 + lambda_span(rng);
    const double u0 = us_lo(rng), u1 = u0 + us_span(rng);

    SweepGrid coarse;
    coarse.set_axis(Axis{"lambda", linspace(l0, l1, 4)});
    coarse.set_axis(Axis{"us", linspace(u0, u1, 4)});
    coarse.set_axis(Axis{"k", {2}});
    SweepOptions options;
    options.theory_only = true;
    AdaptiveOptions adaptive;
    adaptive.max_depth = max_depth;
    const AdaptiveRun run = adaptive_report(coarse, options, adaptive);
    const analysis::BoxGrid boxes = box_grid_of(run.out);

    SweepGrid dense;
    dense.set_axis(Axis{
        "lambda",
        fine_lattice(coarse.find_axis("lambda")->values, max_depth)});
    dense.set_axis(
        Axis{"us", fine_lattice(coarse.find_axis("us")->values, max_depth)});
    dense.set_axis(Axis{"k", {2}});
    std::string dense_csv;
    ReportWriter writer(&dense_csv, ReportFormat::kCsv,
                        sweep_columns(options));
    run_sweep_stream(dense, options, writer);
    writer.finish();
    const analysis::PhaseGrid grid = phase_grid_of(dense_csv);
    ASSERT_EQ(grid.x_axis, "us");
    ASSERT_EQ(grid.y_axis, "lambda");

    std::size_t covered = 0;
    for (std::size_t yi = 0; yi < grid.num_y(); ++yi) {
      for (std::size_t xi = 0; xi < grid.num_x(); ++xi) {
        const analysis::PhaseBox& box =
            boxes.box_at(grid.x_values[xi], grid.y_values[yi]);
        if (box.uniform) {
          EXPECT_EQ(box.verdict, grid.at(yi, xi).verdict)
              << "lambda " << grid.y_values[yi] << " us " << grid.x_values[xi];
        } else {
          // Frontier cover: the cap stopped a disagreeing box only at
          // the finest width.
          EXPECT_LE(box.ext_x, boxes.min_ext_x * 1.0000001);
          EXPECT_LE(box.ext_y, boxes.min_ext_y * 1.0000001);
          ++covered;
        }
      }
    }
    // A window whose frontier misses the box entirely would pass the
    // loop vacuously — require the interesting case (the windows above
    // all straddle the lambda* = 5 Us / E[piece need] frontier).
    EXPECT_GE(covered, 1u);
    EXPECT_LT(run.summary.evaluated, run.summary.dense_equivalent);
  }
}

void expect_same_summary(const AdaptiveSummary& a, const AdaptiveSummary& b) {
  EXPECT_EQ(a.boxes, b.boxes);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.simulated, b.simulated);
  EXPECT_EQ(a.escalated, b.escalated);
  EXPECT_EQ(a.max_depth_reached, b.max_depth_reached);
  EXPECT_EQ(a.dense_equivalent, b.dense_equivalent);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.transient, b.transient);
  EXPECT_EQ(a.borderline, b.borderline);
}

/// Runs `grid` over threads {1, 2, 4, 8} x chunk {1, 7, auto} in CSV and
/// JSON: every point must emit the bytes and the whole summary of the
/// reference run at `base`.
void expect_invariant_across_the_matrix(const SweepGrid& grid,
                                        const SweepOptions& base,
                                        const AdaptiveOptions& adaptive) {
  for (const ReportFormat format : {ReportFormat::kCsv, ReportFormat::kJson}) {
    const AdaptiveRun ref = adaptive_report(grid, base, adaptive, format);
    for (const int threads : {1, 2, 4, 8}) {
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
        SCOPED_TRACE(
            std::string(format == ReportFormat::kCsv ? "csv" : "json") +
            " threads " + std::to_string(threads) + " chunk " +
            std::to_string(chunk));
        SweepOptions options = base;
        options.threads = threads;
        options.chunk = chunk;
        const AdaptiveRun run =
            adaptive_report(grid, options, adaptive, format);
        EXPECT_EQ(run.out, ref.out);
        expect_same_summary(run.summary, ref.summary);
      }
    }
  }
}

TEST(RunAdaptiveStream, ByteDeterminismAcrossTheThreadsChunkMatrix) {
  // The whole adaptive loop — vertex claiming, generation barriers,
  // escalation rounds, leaf emission — may not let scheduling touch the
  // bytes: threads {1, 2, 4, 8} x chunk {1, 7, auto} must emit
  // identical CSV and JSON, with simulation and CI escalation live.
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.5,1.5;k=2");
  SweepOptions base;
  base.horizon = 20;
  base.replicas = 2;
  base.threads = 1;
  base.chunk = 1;
  AdaptiveOptions adaptive;
  adaptive.max_depth = 2;
  adaptive.sim_threshold = 8;
  adaptive.max_sim_rounds = 2;
  const AdaptiveRun csv_ref = adaptive_report(grid, base, adaptive);
  EXPECT_FALSE(csv_ref.out.empty());
  EXPECT_GT(csv_ref.summary.escalated, 0u);
  expect_invariant_across_the_matrix(grid, base, adaptive);
}

TEST(RunAdaptiveStream, ThreeDimensionalVolumeIsInvariantAcrossTheMatrix) {
  // A lambda x Us x mu volume whose mu axis spans gamma, so the
  // altruistic branch (mu >= gamma: always stable) meets the one-club
  // frontier, refined with the tolerance live: at depth 4 every axis is
  // narrower than tol, so disagreeing depth-4 boxes stop as non-uniform
  // leaves one level short of max_depth. Plan, evaluate, decide and
  // render must leave both the bytes and the whole summary untouched by
  // the threads x chunk matrix.
  const SweepGrid grid =
      parse_grid("lambda=0.5:3.0:4;us=0.2:1.7:4;mu=0.5:2.0:4;gamma=1.25");
  SweepOptions base;
  base.theory_only = true;
  base.threads = 1;
  base.chunk = 1;
  AdaptiveOptions adaptive;
  adaptive.max_depth = 5;
  adaptive.tol = 0.06;  // depth-4 widths: 0.052 x 0.031 x 0.031
  const AdaptiveRun csv_ref = adaptive_report(grid, base, adaptive);
  const AdaptiveRun json_ref =
      adaptive_report(grid, base, adaptive, ReportFormat::kJson);
  EXPECT_EQ(csv_ref.summary.max_depth_reached, 4);
  EXPECT_EQ(csv_ref.summary.stable + csv_ref.summary.transient +
                csv_ref.summary.borderline,
            csv_ref.summary.boxes);
  expect_same_summary(json_ref.summary, csv_ref.summary);

  const ReportTable table = read_report(csv_ref.out);
  ASSERT_EQ(table.num_rows(), csv_ref.summary.boxes);
  const auto column = [&](const std::string& name) {
    const auto& cols = table.columns();
    return static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), name) - cols.begin());
  };
  const std::size_t c_mu = column("mu"), c_gamma = column("gamma"),
                    c_uniform = column(kBoxUniformColumn);
  std::size_t altruistic = 0, frontier = 0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    altruistic += std::stod(table.row(r)[c_mu]) >=
                  std::stod(table.row(r)[c_gamma]);
    frontier += table.row(r)[c_uniform] == "0";
  }
  EXPECT_GT(altruistic, 0u);
  EXPECT_GT(frontier, 0u);

  expect_invariant_across_the_matrix(grid, base, adaptive);
}

TEST(RunAdaptiveStream, FourDimensionalVolumeIsInvariantAcrossTheMatrix) {
  // A box of a 4-D lattice has 16 corners, and a child shares only two
  // of them with its parent (the parent's corner at its own child index
  // and the parent's center); the other 14 are edge, face and cell
  // midpoints that neighbouring children share. The gamma axis crosses
  // mu, so both Theorem-1 branches meet inside the volume.
  const SweepGrid grid = parse_grid(
      "lambda=0.5:3.0:3;us=0.2:1.7:2;mu=0.5:2.0:2;gamma=0.8:2.0:2");
  SweepOptions base;
  base.theory_only = true;
  base.threads = 1;
  base.chunk = 1;
  AdaptiveOptions adaptive;
  adaptive.max_depth = 3;
  const AdaptiveRun ref = adaptive_report(grid, base, adaptive);
  EXPECT_EQ(ref.summary.max_depth_reached, 3);
  EXPECT_EQ(ref.summary.stable + ref.summary.transient +
                ref.summary.borderline,
            ref.summary.boxes);
  EXPECT_LT(ref.summary.evaluated, ref.summary.dense_equivalent);
  expect_invariant_across_the_matrix(grid, base, adaptive);
}

/// What a brute-force replay of the refinement sees: the distinct
/// vertices it classified, and its leaves' origin verdicts in report
/// order.
struct OracleRun {
  std::size_t evaluated = 0;
  std::vector<Stability> leaf_verdicts;
  int max_depth_reached = 0;
};

/// Replays the subdivision box by box with none of the engine's slot
/// bookkeeping: every box classifies each of its corners and its center
/// at its fine-lattice values (fine_lattice's exact expression), and the
/// vertex keys land in one ordered map, so a vertex the engine evaluated
/// twice, or shared wrongly between boxes, cannot hide. `axes` are the
/// adaptive axes in grid order (from lambda, us, mu, gamma); the rest
/// take the default region grid's values (mu 1, gamma 1.25, k 3).
OracleRun replay_refinement(const std::vector<Axis>& axes, int max_depth,
                            double tol) {
  const std::size_t d = axes.size();
  const std::uint64_t scale = std::uint64_t{1} << max_depth;
  std::vector<std::vector<double>> fine;
  std::vector<std::uint64_t> dims, boxes;
  for (const Axis& axis : axes) {
    fine.push_back(fine_lattice(axis.values, max_depth));
    dims.push_back(fine.back().size());
    boxes.push_back(axis.values.size() - 1);
  }
  using Point = std::vector<std::uint64_t>;
  std::map<std::uint64_t, Stability> verdicts;
  const auto verdict_at = [&](const Point& g) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < d; ++j) key = key * dims[j] + g[j];
    const auto [it, fresh] = verdicts.try_emplace(key);
    if (fresh) {
      double lambda = 0, us = 0, mu = 1, gamma = 1.25;
      for (std::size_t j = 0; j < d; ++j) {
        const double v = fine[j][g[j]];
        if (axes[j].name == "lambda") lambda = v;
        if (axes[j].name == "us") us = v;
        if (axes[j].name == "mu") mu = v;
        if (axes[j].name == "gamma") gamma = v;
      }
      it->second =
          classify(SwarmParams(3, us, mu, gamma, {{PieceSet{}, lambda}}))
              .verdict;
    }
    return it->second;
  };

  OracleRun run;
  std::vector<Point> current;  // box origins, row-major coarse order
  for (Point box(d, 0);;) {
    Point origin(d);
    for (std::size_t j = 0; j < d; ++j) origin[j] = box[j] * scale;
    current.push_back(origin);
    std::size_t j = d;
    while (j-- > 0 && ++box[j] == boxes[j]) box[j] = 0;
    if (j == std::size_t(-1)) break;
  }
  for (int depth = 0; !current.empty(); ++depth) {
    const std::uint64_t ext = scale >> depth;
    const bool centered = depth < max_depth;
    std::vector<Point> next;
    for (const Point& origin : current) {
      const auto shifted = [&](std::uint64_t c, std::uint64_t step) {
        Point g = origin;
        for (std::size_t j = 0; j < d; ++j) {
          if (((c >> (d - 1 - j)) & 1) != 0) g[j] += step;
        }
        return g;
      };
      const Stability first = verdict_at(origin);
      bool uniform = true;
      for (std::uint64_t c = 1; c < (std::uint64_t{1} << d); ++c) {
        if (verdict_at(shifted(c, ext)) != first) uniform = false;
      }
      if (centered) {
        const std::uint64_t all = (std::uint64_t{1} << d) - 1;
        if (verdict_at(shifted(all, ext / 2)) != first) uniform = false;
      }
      bool split = !uniform && centered;
      if (split && tol > 0) {
        bool within_tol = true;
        for (std::size_t j = 0; j < d; ++j) {
          if (fine[j][origin[j] + ext] - fine[j][origin[j]] > tol) {
            within_tol = false;
          }
        }
        if (within_tol) split = false;
      }
      if (split) {
        for (std::uint64_t c = 0; c < (std::uint64_t{1} << d); ++c) {
          next.push_back(shifted(c, ext / 2));
        }
      } else {
        run.leaf_verdicts.push_back(first);
        run.max_depth_reached = depth;
      }
    }
    current = std::move(next);
  }
  run.evaluated = verdicts.size();
  return run;
}

TEST(RunAdaptiveStream, EvaluatesExactlyTheVerticesOfABruteForceReplay) {
  // The engine never looks a vertex up in earlier generations: a child
  // inherits two corners from its parent and every other corner is new
  // by parity. The replay checks that bookkeeping against the plain
  // definition — the evaluated count is the number of distinct vertices
  // the subdivision touches, the leaves come out in the same order, and
  // every leaf carries its origin's closed-form verdict.
  // The 3-D mu axis crosses gamma = 1.25, so the altruistic branch
  // meets the one-club frontier. The 4-D volume sits where the frontier
  // clips a corner of the box, which keeps depth 5 at a few thousand
  // vertices.
  const std::vector<std::vector<Axis>> lattices = {
      {Axis{"lambda", {0.6, 1.3, 2.0}}, Axis{"us", {0.2, 0.4, 0.6}}},
      {Axis{"lambda", {0.6, 1.3, 2.0}}, Axis{"us", {0.2, 0.4, 0.6}},
       Axis{"mu", {0.5, 2.0}}},
      {Axis{"lambda", {0.9, 1.4}}, Axis{"us", {0.1, 0.25}},
       Axis{"mu", {0.5, 0.8}}, Axis{"gamma", {1.0, 1.6}}}};
  bool tol_stopped_early = false;
  for (const std::vector<Axis>& axes : lattices) {
    const std::size_t d = axes.size();
    SweepGrid grid;
    for (const Axis& axis : axes) grid.set_axis(axis);
    SweepOptions options;
    options.theory_only = true;
    options.threads = 3;
    for (int depth = 0; depth <= 5; ++depth) {
      for (const double tol : {0.0, 0.05}) {
        SCOPED_TRACE("d " + std::to_string(d) + " depth " +
                     std::to_string(depth) + " tol " + format_number(tol));
        AdaptiveOptions adaptive;
        adaptive.max_depth = depth;
        adaptive.tol = tol;
        const AdaptiveRun run = adaptive_report(grid, options, adaptive);
        const OracleRun oracle = replay_refinement(axes, depth, tol);
        EXPECT_EQ(run.summary.evaluated, oracle.evaluated);
        EXPECT_EQ(run.summary.boxes, oracle.leaf_verdicts.size());
        EXPECT_EQ(run.summary.max_depth_reached, oracle.max_depth_reached);
        tol_stopped_early |= tol > 0 && oracle.max_depth_reached < depth;

        const ReportTable table = read_report(run.out);
        const auto& cols = table.columns();
        const std::size_t c_verdict = static_cast<std::size_t>(
            std::find(cols.begin(), cols.end(), "verdict") - cols.begin());
        ASSERT_LT(c_verdict, cols.size());
        ASSERT_EQ(table.num_rows(), oracle.leaf_verdicts.size());
        for (std::size_t r = 0; r < table.num_rows(); ++r) {
          ASSERT_EQ(table.row(r)[c_verdict],
                    to_string(oracle.leaf_verdicts[r]))
              << "leaf " << r;
        }
      }
    }
  }
  EXPECT_TRUE(tol_stopped_early);
}

TEST(RunAdaptiveStream, DepthZeroDegeneratesToTheDensePipelineRowForRow) {
  // At depth 0 the leaves are exactly the coarse boxes, each emitted as
  // its origin (lower-corner) vertex — the dense sweep over the origin
  // sub-lattice (all values but the last per adaptive axis). Every
  // adaptive row must be the dense row's bytes plus the trailing box
  // cells, under every optional column family the shared grid renderer
  // places before them (the per-type block, fluid_verdict) and in both
  // formats: nothing about the shared row rendering may drift.
  const auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') {
        out.push_back(text.substr(start, i - start));
        start = i + 1;
      }
    }
    return out;
  };
  for (const ReportFormat format : {ReportFormat::kCsv, ReportFormat::kJson}) {
    for (const bool mix : {false, true}) {
      for (const bool fluid : {false, true}) {
        SCOPED_TRACE(
            std::string(format == ReportFormat::kCsv ? "csv" : "json") +
            (mix ? " example2" : " no scenario") + (fluid ? " fluid" : ""));
        SweepOptions options;
        options.theory_only = true;
        options.fluid = fluid;
        options.horizon = 40;  // the fluid ODE's span; keeps the 2^k ODE cheap
        SweepGrid coarse;
        coarse.set_axis(Axis{"lambda", {0.5, 1.125, 1.75, 2.375, 3.0}});
        coarse.set_axis(Axis{"us", {0.2, 0.575, 0.95, 1.325, 1.7}});
        coarse.set_axis(Axis{"k", {3}});
        if (mix) {
          options.scenario = parse_scenario("example2:3,1");
          coarse.set_axis(Axis{"k", {4}});
          coarse.set_axis(
              Axis{"gamma", {std::numeric_limits<double>::infinity()}});
          coarse.set_axis(Axis{"mix", {0.5}});
        }
        AdaptiveOptions depth0;
        depth0.max_depth = 0;
        const AdaptiveRun run =
            adaptive_report(coarse, options, depth0, format);
        EXPECT_EQ(run.summary.boxes, 16u);
        EXPECT_EQ(run.summary.evaluated, 25u);
        EXPECT_EQ(run.summary.dense_equivalent, 25u);
        EXPECT_EQ(run.summary.max_depth_reached, 0);

        SweepGrid origins = coarse;
        origins.set_axis(Axis{"lambda", {0.5, 1.125, 1.75, 2.375}});
        origins.set_axis(Axis{"us", {0.2, 0.575, 0.95, 1.325}});
        std::string dense;
        ReportWriter writer(&dense, format, sweep_columns(options));
        run_sweep_stream(origins, options, writer);
        writer.finish();

        const std::vector<std::string> adaptive_lines = lines(run.out);
        const std::vector<std::string> dense_lines = lines(dense);
        ASSERT_EQ(adaptive_lines.size(), dense_lines.size());
        // 16 rows plus the CSV header, or the JSON brackets.
        ASSERT_EQ(adaptive_lines.size(),
                  format == ReportFormat::kCsv ? 17u : 18u);
        for (std::size_t i = 0; i < dense_lines.size(); ++i) {
          SCOPED_TRACE("line " + std::to_string(i));
          // A JSON row's cells end before its "}" / "}," terminator; the
          // array brackets carry no cells and must match outright.
          std::string cells = dense_lines[i];
          if (format == ReportFormat::kJson) {
            if (cells.rfind("  {", 0) != 0) {
              EXPECT_EQ(adaptive_lines[i], cells);
              continue;
            }
            cells.erase(cells.rfind('}'));
          }
          ASSERT_GT(adaptive_lines[i].size(), cells.size());
          EXPECT_EQ(adaptive_lines[i].substr(0, cells.size()), cells);
          EXPECT_EQ(adaptive_lines[i][cells.size()], ',');
        }
        // Depth-0 leaves are never subdivided, but their uniformity is
        // still honest: rows straddling the frontier carry
        // box_uniform = 0.
        const ReportTable table = read_report(run.out);
        const ReportSchema schema = validate_report_schema(table.columns());
        ASSERT_TRUE(schema.has_boxes);
        EXPECT_EQ(schema.has_scenario, mix);
        EXPECT_EQ(schema.has_fluid, fluid);
        std::size_t nonuniform = 0;
        for (std::size_t r = 0; r < table.num_rows(); ++r) {
          EXPECT_EQ(table.row(r)[schema.box_start], "0");  // depth
          nonuniform += table.row(r)[schema.box_start + 1] == "0";
        }
        EXPECT_GE(nonuniform, 1u);
      }
    }
  }
}

TEST(RunAdaptiveStream, MultiResSchemaRoundTripsThroughIngestion) {
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.2:1.7:3;k=2");
  SweepOptions options;
  options.theory_only = true;
  AdaptiveOptions adaptive;
  adaptive.max_depth = 3;
  const AdaptiveRun run = adaptive_report(grid, options, adaptive);

  const ReportTable table = read_report(run.out);
  const ReportSchema schema = validate_report_schema(table.columns());
  EXPECT_TRUE(schema.has_boxes);
  ASSERT_EQ(schema.box_axes.size(), 2u);
  EXPECT_EQ(schema.box_axes[0], "lambda");
  EXPECT_EQ(schema.box_axes[1], "us");
  EXPECT_EQ(table.num_rows(), run.summary.boxes);

  const analysis::BoxGrid boxes = box_grid_of(run.out);
  EXPECT_EQ(boxes.boxes.size(), run.summary.boxes);
  EXPECT_EQ(boxes.max_depth, run.summary.max_depth_reached);
  EXPECT_EQ(boxes.x_axis, "us");
  EXPECT_EQ(boxes.y_axis, "lambda");
  EXPECT_DOUBLE_EQ(boxes.x_min, 0.2);
  EXPECT_DOUBLE_EQ(boxes.x_max, 1.7);
  EXPECT_DOUBLE_EQ(boxes.y_min, 0.5);
  EXPECT_DOUBLE_EQ(boxes.y_max, 3.0);
  std::size_t stable = 0, transient = 0, borderline = 0;
  for (const analysis::PhaseBox& b : boxes.boxes) {
    (b.verdict == Stability::kPositiveRecurrent
         ? stable
         : b.verdict == Stability::kTransient ? transient : borderline) += 1;
  }
  EXPECT_EQ(stable, run.summary.stable);
  EXPECT_EQ(transient, run.summary.transient);
  EXPECT_EQ(borderline, run.summary.borderline);
  // A file-backed reader, and the same rows as report JSON, give the
  // same boxes.
  const std::string path = testing::TempDir() + "adaptive_roundtrip.csv";
  write_text(path, run.out);
  CsvReader reader(path);
  const analysis::BoxGrid streamed = analysis::build_box_grid(reader);
  const analysis::BoxGrid from_json =
      box_grid_of(render_table(table, ReportFormat::kJson));
  for (const analysis::BoxGrid* other : {&streamed, &from_json}) {
    ASSERT_EQ(other->boxes.size(), boxes.boxes.size());
    EXPECT_EQ(other->max_depth, boxes.max_depth);
    for (std::size_t i = 0; i < boxes.boxes.size(); ++i) {
      EXPECT_EQ(other->boxes[i].x0, boxes.boxes[i].x0) << i;
      EXPECT_EQ(other->boxes[i].y0, boxes.boxes[i].y0) << i;
      EXPECT_EQ(other->boxes[i].ext_x, boxes.boxes[i].ext_x) << i;
      EXPECT_EQ(other->boxes[i].ext_y, boxes.boxes[i].ext_y) << i;
      EXPECT_EQ(other->boxes[i].verdict, boxes.boxes[i].verdict) << i;
      EXPECT_EQ(other->boxes[i].margin, boxes.boxes[i].margin) << i;
    }
  }
  std::remove(path.c_str());
}

TEST(RunAdaptiveStream, TolStopsSubdivisionAtThePhysicalWidth) {
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.2:1.7:3;k=2");
  SweepOptions options;
  options.theory_only = true;
  AdaptiveOptions capped;
  capped.max_depth = 6;
  capped.tol = 0.4;  // coarse boxes are 1.25 x 0.75 wide
  const AdaptiveRun run = adaptive_report(grid, options, capped);
  AdaptiveOptions uncapped = capped;
  uncapped.tol = 0;
  const AdaptiveRun full = adaptive_report(grid, options, uncapped);
  // The tolerance must stop refinement early...
  EXPECT_LT(run.summary.max_depth_reached, full.summary.max_depth_reached);
  EXPECT_LT(run.summary.evaluated, full.summary.evaluated);
  // ...exactly when every axis width is <= tol: widths halve from
  // 1.25 / 0.75, so depth 2 (0.3125 x 0.1875) is the first within 0.4.
  EXPECT_EQ(run.summary.max_depth_reached, 2);
  const analysis::BoxGrid boxes = box_grid_of(run.out);
  for (const analysis::PhaseBox& b : boxes.boxes) {
    if (b.uniform) continue;
    EXPECT_LE(b.ext_x, capped.tol);
    EXPECT_LE(b.ext_y, capped.tol);
  }
}

/// Checks every leaf row of `out` — an adaptive report (either dialect)
/// over the adaptive `axes` (grid order) at `max_depth` — against the fine
/// lattice: each axis cell is format_number of a fine vertex value,
/// found by exact lookup in fine_lattice, whose index is a multiple of
/// the row's box extent, and each box_ext cell is format_number of the
/// box's width at that origin. Returns the number of rows checked.
std::size_t expect_leaf_cells_on_the_lattice(const std::vector<Axis>& axes,
                                             int max_depth,
                                             const std::string& out) {
  const std::uint64_t scale = std::uint64_t{1} << max_depth;
  std::vector<std::vector<double>> fine;
  for (const Axis& axis : axes) {
    fine.push_back(fine_lattice(axis.values, max_depth));
  }
  const ReportTable table = read_report(out);
  const ReportSchema schema = validate_report_schema(table.columns());
  EXPECT_TRUE(schema.has_boxes);
  std::vector<std::size_t> value_columns;
  for (const Axis& axis : axes) {
    const auto& cols = table.columns();
    value_columns.push_back(static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), axis.name) - cols.begin()));
  }
  // A mismatch usually repeats on many rows: count them, show the first.
  std::size_t mismatches = 0;
  std::string first;
  const auto mismatch = [&](std::size_t r, const std::string& what) {
    if (mismatches++ == 0) first = "row " + std::to_string(r) + ": " + what;
  };
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const std::vector<std::string>& row = table.row(r);
    const int depth = std::stoi(row[schema.box_start]);
    const std::uint64_t ext = scale >> depth;
    for (std::size_t j = 0; j < axes.size(); ++j) {
      const std::string& cell = row[value_columns[j]];
      const double x = std::strtod(cell.c_str(), nullptr);
      const auto it = std::lower_bound(fine[j].begin(), fine[j].end(), x);
      if (it == fine[j].end() || *it != x) {
        mismatch(r, axes[j].name + " " + cell + " is no lattice value");
        continue;
      }
      const auto g = static_cast<std::uint64_t>(it - fine[j].begin());
      if (g % ext != 0 || g + ext >= fine[j].size()) {
        mismatch(r, axes[j].name + " origin " + std::to_string(g) +
                        " is off the depth-" + std::to_string(depth) +
                        " boxes");
        continue;
      }
      if (cell != format_number(*it)) {
        mismatch(r, axes[j].name + " " + cell + " != " + format_number(*it));
      }
      const std::string want = format_number(fine[j][g + ext] - fine[j][g]);
      const std::string& got = row[schema.box_start + 2 + j];
      if (got != want) {
        mismatch(r, kBoxExtPrefix + axes[j].name + " " + got + " != " + want);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << first;
  return table.num_rows();
}

TEST(RunAdaptiveStream, LeafCellsAreTheLatticeValuesOfAnUnevenVolume) {
  // Leaves render their axis and box_ext cells from per-generation
  // tokens. On a jittered, unevenly spaced lattice the boxes of one
  // depth differ in width from coarse box to coarse box (and, through
  // rounding, within one), so a token must be keyed by the box's
  // origin: every cell has to be format_number of the value the lattice
  // defines there, in both formats.
  const std::vector<Axis> axes = {Axis{"lambda", {0.503, 1.1, 2.987}},
                                  Axis{"us", {0.2011, 0.45, 1.693}},
                                  Axis{"mu", {0.4977, 1.61, 2.0083}}};
  SweepGrid grid;
  for (const Axis& axis : axes) grid.set_axis(axis);
  SweepOptions options;
  options.theory_only = true;
  options.threads = 4;
  AdaptiveOptions adaptive;
  adaptive.max_depth = 6;
  std::string csv;
  for (const ReportFormat format : {ReportFormat::kCsv, ReportFormat::kJson}) {
    SCOPED_TRACE(format == ReportFormat::kCsv ? "csv" : "json");
    const AdaptiveRun run = adaptive_report(grid, options, adaptive, format);
    EXPECT_EQ(run.summary.max_depth_reached, 6);
    EXPECT_EQ(expect_leaf_cells_on_the_lattice(axes, adaptive.max_depth,
                                               run.out),
              run.summary.boxes);
    if (format == ReportFormat::kCsv) csv = run.out;
  }
  // The lattice really does give one depth several widths per axis
  // (from depth 1 on; depth 0 has too few leaves to tell).
  const ReportTable table = read_report(csv);
  const ReportSchema schema = validate_report_schema(table.columns());
  std::map<std::pair<std::size_t, std::string>, std::set<std::string>> widths;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t j = 0; j < axes.size(); ++j) {
      widths[{j, table.row(r)[schema.box_start]}].insert(
          table.row(r)[schema.box_start + 2 + j]);
    }
  }
  for (const auto& [key, cells] : widths) {
    if (key.second == "0") continue;
    EXPECT_GT(cells.size(), 1u)
        << axes[key.first].name << " at depth " << key.second;
  }
}

/// The lambda at which the one-club frontier crosses `us` (default k 3,
/// mu 1, gamma 1.25), bisected on the closed form.
double frontier_lambda(double us) {
  double lo = 0, hi = 100;
  for (int i = 0; i < 200; ++i) {
    const double mid = lo + (hi - lo) / 2;
    const Stability v =
        classify(SwarmParams(3, us, 1, 1.25, {{PieceSet{}, mid}})).verdict;
    (v == Stability::kPositiveRecurrent ? lo : hi) = mid;
  }
  return lo;
}

TEST(RunAdaptiveStream, DeepRunsRenderExactCellsWithBoundedTokens) {
  // A generation's token table on axis j has boxes_j * 2^depth entries;
  // a generation with fewer leaves than that formats its rows instead.
  // Both routes must emit the lattice's exact cells. At depth 20 a
  // frontier that clips one corner of a single box leaves a handful of
  // leaves per generation against tables of up to 2^20 entries; at
  // depth 14 a frontier across the box leaves enough rows for the
  // deepest generations to take the token route.
  const double corner = frontier_lambda(0.5);
  const std::vector<std::vector<Axis>> lattices = {
      {Axis{"lambda", {corner - 1, corner + 1e-5}}, Axis{"us", {0.5, 0.6}}},
      {Axis{"lambda", {0.6, 2.3}}, Axis{"us", {0.2, 0.6}}}};
  const int depths[] = {20, 14};
  for (std::size_t l = 0; l < lattices.size(); ++l) {
    SCOPED_TRACE("depth " + std::to_string(depths[l]));
    SweepGrid grid;
    for (const Axis& axis : lattices[l]) grid.set_axis(axis);
    SweepOptions options;
    options.theory_only = true;
    options.threads = 4;
    AdaptiveOptions adaptive;
    adaptive.max_depth = depths[l];
    const AdaptiveRun run = adaptive_report(grid, options, adaptive);
    EXPECT_EQ(run.summary.max_depth_reached, depths[l]);
    EXPECT_EQ(expect_leaf_cells_on_the_lattice(lattices[l], depths[l],
                                               run.out),
              run.summary.boxes);
    if (l == 0) {
      EXPECT_LT(run.summary.boxes, 1000u);
    }
  }
}

TEST(RunAdaptiveStream, CtmcAndFluidRunsAreInvariantAcrossTheMatrix) {
  // The theory-only runs that keep more per vertex than the verdict:
  // --ctmc-cap stores each vertex's CTMC mean in the sidecar, --fluid its
  // fluid verdict byte. Both must render the same bytes under every
  // schedule.
  const SweepGrid grid = parse_grid("k=2;lambda=0.5:3.0:3;us=0.2:1.7:3");
  AdaptiveOptions adaptive;
  adaptive.max_depth = 2;
  SweepOptions ctmc;
  ctmc.theory_only = true;
  ctmc.ctmc_max_peers = 4;
  ctmc.threads = 1;
  ctmc.chunk = 1;
  const ReportTable table =
      read_report(adaptive_report(grid, ctmc, adaptive).out);
  const auto& cols = table.columns();
  const std::size_t c_ctmc = static_cast<std::size_t>(
      std::find(cols.begin(), cols.end(), "ctmc_mean_peers") - cols.begin());
  ASSERT_LT(c_ctmc, cols.size());
  ASSERT_GT(table.num_rows(), 0u);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_TRUE(std::isfinite(std::stod(table.row(r)[c_ctmc]))) << "row " << r;
  }
  expect_invariant_across_the_matrix(grid, ctmc, adaptive);

  SweepOptions fluid;
  fluid.theory_only = true;
  fluid.fluid = true;
  fluid.horizon = 10;  // the fluid ODE's span; both verdicts still occur
  fluid.threads = 1;
  fluid.chunk = 1;
  expect_invariant_across_the_matrix(grid, fluid, adaptive);
}

TEST(RunAdaptiveStreamDeath, WriterWithDenseColumnsAborts) {
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.2:1.7:3;k=2");
  SweepOptions options;
  options.theory_only = true;
  AdaptiveOptions adaptive;
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, sweep_columns(options));
  EXPECT_DEATH(run_adaptive_stream(grid, options, adaptive, writer),
               "adaptive_columns");
  writer.finish();
}

TEST(RunAdaptiveStreamDeath, FewerThanTwoVaryingAxesAborts) {
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:5;us=1;k=2");
  SweepOptions options;
  options.theory_only = true;
  AdaptiveOptions adaptive;
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv,
                      adaptive_columns(grid, options));
  EXPECT_DEATH(run_adaptive_stream(grid, options, adaptive, writer),
               "at least two");
  writer.finish();
}

TEST(RunAdaptiveStreamDeath, NonRefinableVaryingAxisAborts) {
  // k varies but is not refinable: midpoints of an integer axis are not
  // model points, so the adaptive lattice refuses the grid up front.
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:3;k=1,3;us=1");
  SweepOptions options;
  options.theory_only = true;
  AdaptiveOptions adaptive;
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv,
                      adaptive_columns(grid, options));
  EXPECT_DEATH(run_adaptive_stream(grid, options, adaptive, writer), "k");
  writer.finish();
}

// Corrupt-archive deaths: every abort names the offending row, so a
// truncated or hand-edited archive is debuggable from the message.

std::string adaptive_csv_3x3() {
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.2:1.7:3;k=2");
  SweepOptions options;
  options.theory_only = true;
  AdaptiveOptions adaptive;
  adaptive.max_depth = 1;
  return adaptive_report(grid, options, adaptive).out;
}

/// Replaces data-row `row`'s cell in column `col` with `value`, and
/// renders the rows in `format`.
std::string tamper(const std::string& csv, std::size_t row, std::size_t col,
                   const std::string& value, ReportFormat format) {
  ReportTable table = read_report(csv);
  std::vector<std::string> cells = table.row(row);
  cells[col] = value;
  ReportTable out(table.columns());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    out.add_row(r == row ? cells : table.row(r));
  }
  return render_table(out, format);
}

TEST(BuildBoxGridDeath, DenseReportsAreNotBoxGrids) {
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.2:1.7:3;k=2");
  SweepOptions options;
  options.theory_only = true;
  std::string csv;
  ReportWriter writer(&csv, ReportFormat::kCsv, sweep_columns(options));
  run_sweep_stream(grid, options, writer);
  writer.finish();
  EXPECT_DEATH(box_grid_of(csv), "adaptive grid reports");
}

TEST(BuildBoxGridDeath, CorruptGeometryCellsDieNamingTheRow) {
  const std::string csv = adaptive_csv_3x3();
  const ReportTable table = read_report(csv);
  const ReportSchema schema = validate_report_schema(table.columns());
  ASSERT_TRUE(schema.has_boxes);
  const std::size_t depth_col = schema.box_start;
  for (const ReportFormat format : {ReportFormat::kCsv, ReportFormat::kJson}) {
    EXPECT_DEATH(box_grid_of(tamper(csv, 2, depth_col, "-1", format)),
                 "box_depth.*row 2");
    EXPECT_DEATH(box_grid_of(tamper(csv, 3, depth_col + 1, "2", format)),
                 "box_uniform.*row 3");
    EXPECT_DEATH(box_grid_of(tamper(csv, 1, depth_col + 2, "0", format)),
                 "extents.*row 1");
    // A wrong (but positive) extent breaks the measure tiling instead.
    EXPECT_DEATH(box_grid_of(tamper(csv, 0, depth_col + 3, "9", format)),
                 "tile");
  }
}

TEST(ValidateReportSchemaDeath, BoxBlockHeadersAreChecked) {
  SweepOptions options;
  options.theory_only = true;
  std::vector<std::string> cols = sweep_columns(options);
  cols.push_back(kBoxDepthColumn);
  cols.push_back(kBoxUniformColumn);
  cols.push_back(std::string(kBoxExtPrefix) + "lambda");
  {
    std::vector<std::string> bogus = cols;
    bogus.push_back(std::string(kBoxExtPrefix) + "banana");
    EXPECT_DEATH(validate_report_schema(bogus), "banana");
  }
  {
    std::vector<std::string> repeated = cols;
    repeated.push_back(std::string(kBoxExtPrefix) + "lambda");
    EXPECT_DEATH(validate_report_schema(repeated), "repeats");
  }
  // One extent column alone: adaptive refinement is >= 2-D.
  EXPECT_DEATH(validate_report_schema(cols), "at least two");
}

}  // namespace
}  // namespace p2p::engine
