// Streaming frontier emission: run_frontier_stream must emit the same
// bytes for any (threads, chunk) combination, in both formats, and each
// row must read back to the closed-form bisection of its first coarse
// verdict flip. The archived frontier corpora and the CI determinism
// diffs depend on the bytes, not only the parsed content.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/stability.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

/// Checks the CSV frontier report `csv` against values computed without
/// the engine's row pipeline. Row r holds the r-th combination of the
/// non-refined axes (last axis fastest) at their grid values, bit for
/// bit. Its bracket is bisect_verdict_flip over classify() on the first
/// coarse bracket whose verdicts differ (bracketed = 0 and a NaN bracket
/// when there is none), its value the bracket's midpoint, which the
/// refined axis cell also holds, and its margin classify() there.
void expect_points_match_bisection(const SweepGrid& grid,
                                   const SweepOptions& options,
                                   const RefineOptions& refine,
                                   const std::string& csv,
                                   const std::string& what) {
  const SweepGrid effective = with_default_axes(grid);
  SweepGrid rows;
  for (const Axis& axis : effective.axes) {
    if (axis.name != refine.axis) rows.axes.push_back(axis);
  }
  const std::vector<double>& coarse = effective.find_axis(refine.axis)->values;
  const std::vector<FrontierPoint> points = decode_points(read_report(csv));
  ASSERT_EQ(points.size(), rows.num_cells()) << what;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t r = 0; r < points.size(); ++r) {
    const FrontierPoint& pt = points[r];
    const std::vector<double> values = rows.cell_values(r);
    CellParams p;
    p.policy = options.scenario.policy;
    ASSERT_EQ(pt.row, r) << what;
    for (std::size_t a = 0; a < values.size(); ++a) {
      const std::string& name = rows.axes[a].name;
      set_param(p, name, values[a]);
      ASSERT_EQ(bits(param(pt.params, name)), bits(param(p, name)))
          << what << " row " << r << " axis " << name;
    }
    const auto report_at = [&](double v) {
      CellParams at = p;
      set_param(at, refine.axis, v);
      return classify(expand(options.scenario, at).params);
    };
    const auto verdict_at = [&](double v) { return report_at(v).verdict; };
    std::size_t b = 0;
    while (b + 1 < coarse.size() &&
           verdict_at(coarse[b]) == verdict_at(coarse[b + 1])) {
      ++b;
    }
    if (b + 1 == coarse.size()) {
      EXPECT_FALSE(pt.bracketed) << what << " row " << r;
      EXPECT_TRUE(std::isnan(pt.value_lo)) << what << " row " << r;
      EXPECT_TRUE(std::isnan(pt.value_hi)) << what << " row " << r;
      EXPECT_TRUE(std::isnan(param(pt.params, refine.axis)))
          << what << " row " << r;
      continue;
    }
    const auto [lo, hi] = bisect_verdict_flip(
        coarse[b], coarse[b + 1], verdict_at(coarse[b]), refine.tol,
        verdict_at);
    ASSERT_TRUE(pt.bracketed) << what << " row " << r;
    EXPECT_EQ(bits(pt.value_lo), bits(lo)) << what << " row " << r;
    EXPECT_EQ(bits(pt.value_hi), bits(hi)) << what << " row " << r;
    EXPECT_EQ(bits(pt.value), bits(0.5 * (lo + hi))) << what << " row " << r;
    EXPECT_EQ(bits(param(pt.params, refine.axis)), bits(pt.value))
        << what << " row " << r;
    EXPECT_EQ(bits(pt.margin), bits(report_at(pt.value).margin))
        << what << " row " << r;
  }
}

TEST(FrontierStream, BytesAndBisectionAgreeAcrossThreadsAndChunks) {
  // The determinism matrix: threads {1, 2, 8} x chunk {1, 7, auto}, in
  // both formats, against the 1-thread chunk-1 bytes, whose rows must
  // read back to the closed-form bisection. Chunk 7 divides neither
  // replica count, so rows straddle block boundaries; with 64 replicas
  // at chunk 1 a row spans more blocks than the claim window.
  struct Shape {
    const char* grid;
    int replicas;
  };
  for (const Shape& shape :
       {Shape{"k=1;us=0.4,0.8,1.2;mu=1;gamma=1.25;lambda=0.5:9.5:4", 3},
        Shape{"k=1;us=0.4,0.8,1.2;mu=1;gamma=1.25;lambda=0.5:9.5:4", 64}}) {
    const SweepGrid grid = parse_grid(shape.grid);
    SweepOptions base;
    base.horizon = shape.replicas > 8 ? 10 : 25;
    base.replicas = shape.replicas;
    base.chunk = 1;
    RefineOptions refine;
    refine.axis = "lambda";
    refine.tol = 1e-2;

    const std::string want_csv = frontier_report(grid, base, refine);
    const std::string want_json =
        frontier_report(grid, base, refine, ReportFormat::kJson);
    const std::string what = "replicas " + std::to_string(shape.replicas);
    expect_points_match_bisection(grid, base, refine, want_csv, what);
    ASSERT_EQ(read_report(want_json).num_rows(), 3u);

    for (const int threads : {1, 2, 8}) {
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
        SweepOptions options = base;
        options.threads = threads;
        options.chunk = chunk;
        EXPECT_EQ(frontier_report(grid, options, refine), want_csv)
            << what << " threads " << threads << " chunk " << chunk;
        EXPECT_EQ(frontier_report(grid, options, refine, ReportFormat::kJson),
                  want_json)
            << what << " threads " << threads << " chunk " << chunk;
      }
    }
  }
}

TEST(FrontierStream, ScenarioColumnsStreamIdentically) {
  // Mixed-arrival frontier (per-type rate columns, refinement along
  // mix): the wider schema must stream byte-identically too, and bisect
  // where the closed form flips.
  SweepGrid grid = parse_grid("k=4;us=1;mu=1;gamma=inf;lambda=1.2,3;mix=0:1:5");
  SweepOptions base;
  base.horizon = 20;
  base.replicas = 2;
  base.chunk = 1;
  base.scenario = parse_scenario("example2:3,1");
  RefineOptions refine;
  refine.axis = "mix";
  refine.tol = 1e-3;

  const std::string want = frontier_report(grid, base, refine);
  expect_points_match_bisection(grid, base, refine, want, "example2");
  for (const int threads : {1, 8}) {
    SweepOptions options = base;
    options.threads = threads;
    options.chunk = 0;
    EXPECT_EQ(frontier_report(grid, options, refine), want)
        << "threads " << threads;
  }
}

TEST(FrontierStream, UnbracketedRowsStreamAndCount) {
  // lambda* = 5 Us: with coarse lambda {1, 4}, the us = 0.4 row
  // brackets (2 in (1, 4)) and the us = 1.2 row does not (6 outside).
  SweepGrid grid = parse_grid("k=1;us=0.4,1.2;mu=1;gamma=1.25;lambda=1,4");
  SweepOptions options;
  options.horizon = 15;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-2;

  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, frontier_columns(options));
  const FrontierSummary summary =
      run_frontier_stream(grid, options, refine, writer);
  writer.finish();
  EXPECT_EQ(summary.rows, 2u);
  EXPECT_EQ(summary.bracketed, 1u);
  expect_points_match_bisection(grid, options, refine, out, "unbracketed");
  const std::vector<FrontierPoint> points = decode_points(read_report(out));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(points[0].bracketed);
  EXPECT_FALSE(points[1].bracketed);
  EXPECT_EQ(points[1].sim.replicas, 0);
}

TEST(FrontierStreamDeath, WrongWriterColumnsAbort) {
  SweepGrid grid = parse_grid("k=1;us=1;lambda=1,9");
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"wrong"});
  EXPECT_DEATH(run_frontier_stream(grid, options, refine, writer),
               "frontier_columns");
  writer.finish();
}

TEST(FrontierStreamDeath, TheoryOnlyAborts) {
  SweepGrid grid = parse_grid("k=1;us=1;lambda=1,9");
  SweepOptions options;
  options.horizon = 5;
  options.theory_only = true;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, frontier_columns(options));
  EXPECT_DEATH(run_frontier_stream(grid, options, refine, writer),
               "theory_only");
  writer.finish();
}

TEST(FrontierStream, AbortingRunLeavesExistingFileUntouched) {
  // The abort-preserves-file corner from test_report.cpp, on the
  // frontier path: the tool constructs the file-backed writer before
  // validation runs, so a bad refine spec must abort before the lazy
  // open ever truncates a previously archived frontier.
  const std::string path =
      ::testing::TempDir() + "frontier_preserved.csv";
  write_text(path, "precious archived frontier\n");

  SweepGrid grid = parse_grid("k=1;us=1;lambda=5");  // 1 coarse value: aborts
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  EXPECT_DEATH(
      {
        ReportWriter writer(path, ReportFormat::kCsv,
                            frontier_columns(options));
        run_frontier_stream(grid, options, refine, writer);
        writer.finish();
      },
      ">= 2 coarse values");

  // The child aborted mid-validation; the parent's file is intact.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[64] = {};
  const std::size_t got = std::fread(buffer, 1, sizeof(buffer), file);
  std::fclose(file);
  EXPECT_EQ(std::string(buffer, got), "precious archived frontier\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p2p::engine
