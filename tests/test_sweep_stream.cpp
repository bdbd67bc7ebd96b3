// The streaming sweep pipeline's contract: run_sweep_stream emits, byte
// for byte, what run_sweep + SweepResult::write would have — for any
// thread count and any chunk size — while holding only a bounded ring of
// cells. The
// archived corpora and CI determinism diffs ride on these bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

std::string stream_csv(const SweepGrid& grid, const SweepOptions& options) {
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, sweep_columns(options));
  run_sweep_stream(grid, options, writer);
  writer.finish();
  return out;
}

std::string stream_json(const SweepGrid& grid, const SweepOptions& options) {
  std::string out;
  ReportWriter writer(&out, ReportFormat::kJson, sweep_columns(options));
  run_sweep_stream(grid, options, writer);
  writer.finish();
  return out;
}

TEST(RunSweepStream, MatchesRunSweepOnTheGoldenGrid) {
  // The golden-schema grid from test_sweep_golden: replicas, CTMC
  // column, NaN uncertainty cells — everything the row formatter can
  // emit on the homogeneous slice.
  const SweepGrid grid =
      parse_grid("lambda=0.5:3.0:3;us=0.7,1.3;k=2;gamma=1.25");
  SweepOptions options;
  options.horizon = 40;
  options.replicas = 3;
  options.ctmc_max_peers = 10;
  const SweepResult result = run_sweep(grid, options);
  EXPECT_EQ(stream_csv(grid, options), render(result));
  EXPECT_EQ(stream_json(grid, options), render(result, ReportFormat::kJson));
}

TEST(RunSweepStream, MatchesRunSweepWithAScenario) {
  // Per-type arrival-rate columns exercise the scenario-dependent part
  // of the schema.
  SweepGrid grid = parse_grid("lambda=1,2;us=1;gamma=inf;k=4;mix=0,0.5,1");
  SweepOptions options;
  options.horizon = 20;
  options.replicas = 2;
  options.scenario = parse_scenario("example2:3,1");
  const SweepResult result = run_sweep(grid, options);
  EXPECT_EQ(stream_csv(grid, options), render(result));
  EXPECT_EQ(stream_json(grid, options), render(result, ReportFormat::kJson));
}

TEST(RunSweepStream, DeterminismMatrixOverThreadsAndChunks) {
  // The satellite acceptance matrix: same grid swept at threads
  // {1, 2, 4, 8} x chunk {1, 7, auto} must produce byte-identical CSV
  // and JSON. Chunking and scheduling may only change who computes a
  // cell, never the cell. threads = 4 with chunk = 7 and replicas = 3 is
  // the ring-sizing regression corner: there the claim window (126
  // items) is an exact multiple of replicas, so a ring sized to the bare
  // window would let a tail item overwrite the samples of the cell a
  // mid-cell prefix stopped inside. The few-cell shape has 64 replicas
  // per cell: at chunk 1 one cell spans more blocks than the
  // 4 * threads + 2 claim window, so its samples and countdown sit in
  // the owner block's slot while later blocks finish it.
  struct Shape {
    const char* grid;
    int replicas;
  };
  for (const Shape& shape : {Shape{"lambda=0.5:3.0:16;us=0.5,1.5;k=2", 3},
                             Shape{"lambda=0.4,0.8,1.2;us=1.5;k=2", 64}}) {
    const SweepGrid grid = parse_grid(shape.grid);
    SweepOptions base;
    base.horizon = 20;
    base.replicas = shape.replicas;
    base.threads = 1;
    base.chunk = 1;
    const std::string csv_ref = stream_csv(grid, base);
    const std::string json_ref = stream_json(grid, base);
    EXPECT_FALSE(csv_ref.empty());
    EXPECT_EQ(csv_ref, render(run_sweep(grid, base))) << shape.grid;
    for (const int threads : {1, 2, 4, 8}) {
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
        SweepOptions options = base;
        options.threads = threads;
        options.chunk = chunk;
        EXPECT_EQ(stream_csv(grid, options), csv_ref)
            << shape.grid << " threads " << threads << " chunk " << chunk;
        EXPECT_EQ(stream_json(grid, options), json_ref)
            << shape.grid << " threads " << threads << " chunk " << chunk;
      }
    }
  }
}

TEST(RunSweepStream, TheoryOnlyDeterminismMatrixMatchesRunSweep) {
  // The theory-only + replicas=1 streaming path takes the chunk-batched
  // route: a worker completes a whole claimed block into one arena and
  // the consumer emits it with a single write_rendered. The matrix pins
  // that route to the retained-cells bytes for both formats — along
  // with the cached-token fast paths (constant-axis runs, verdict /
  // critical-piece cells, the constant sim tail) that only exist on it.
  const SweepGrid grid =
      parse_grid("lambda=0.5:3.0:16;us=0.5,1.5;k=2;gamma=1.25");
  SweepOptions base;
  base.theory_only = true;
  const SweepResult result = run_sweep(grid, base);
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
      SweepOptions options = base;
      options.threads = threads;
      options.chunk = chunk;
      EXPECT_EQ(stream_csv(grid, options), render(result))
          << "threads " << threads << " chunk " << chunk;
      EXPECT_EQ(stream_json(grid, options), render(result, ReportFormat::kJson))
          << "threads " << threads << " chunk " << chunk;
    }
  }
}

TEST(RunSweepStream, EveryColumnFamilyMatchesRunSweepAcrossTheMatrix) {
  // The streamed rows are assembled from the plan's cached pieces (axis
  // tokens, verdict + margin prefix, critical piece + constant sim tail)
  // plus directly formatted numbers; run_sweep's retained cells format
  // their axis values instead. Every column family must come out the
  // same through both, at any (threads, chunk).
  struct Case {
    const char* name;
    const char* grid;
    SweepOptions options;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* name, const char* grid,
                       const auto& configure) {
    SweepOptions options;
    options.horizon = 20;
    configure(options);
    cases.push_back({name, grid, options});
  };
  // Varying k and gamma = inf, with gamma <= mu cells (critical_piece
  // -1, margin 0) at gamma = 0.5.
  add("k/gamma", "lambda=0.5:3.0:9;us=0.2:1.7:5;k=1,2,4;gamma=0.5,1.25,inf",
      [](SweepOptions& o) { o.theory_only = true; });
  add("ctmc", "lambda=0.5:2.5:5;us=0.5,1;k=1,2;gamma=1.25,inf",
      [](SweepOptions& o) {
        o.theory_only = true;
        o.ctmc_max_peers = 10;
      });
  add("fluid", "lambda=0.5:3.0:4;us=0.2:1.7:3;k=2", [](SweepOptions& o) {
    o.theory_only = true;
    o.fluid = true;
  });
  add("example2", "lambda=0.5:3.0:6;us=0:1:3;gamma=inf;k=4;mix=0,0.5,1",
      [](SweepOptions& o) {
        o.theory_only = true;
        o.scenario = parse_scenario("example2");
      });
  // One replica per cell simulates through the chunk-batched route too:
  // the backend, policy and fluid tails after the sim and CTMC cells.
  add("rarest", "lambda=0.5,2;us=0.5,1.5;k=2", [](SweepOptions& o) {
    o.scenario.policy = PolicyKind::kRarestFirst;
    o.fluid = true;
    o.ctmc_max_peers = 10;
  });
  // Past 100,000 cells, so cell 100000's "1e+05" spelling is assembled.
  add("large", "lambda=0.5:3.0:317;us=0.2:1.7:316",
      [](SweepOptions& o) { o.theory_only = true; });

  for (const Case& c : cases) {
    const SweepGrid grid = parse_grid(c.grid);
    const SweepResult result = run_sweep(grid, c.options);
    const std::string csv = render(result);
    const std::string json = render(result, ReportFormat::kJson);
    for (const int threads : {1, 4}) {
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
        SweepOptions options = c.options;
        options.threads = threads;
        options.chunk = chunk;
        EXPECT_EQ(stream_csv(grid, options), csv)
            << c.name << " threads " << threads << " chunk " << chunk;
        EXPECT_EQ(stream_json(grid, options), json)
            << c.name << " threads " << threads << " chunk " << chunk;
      }
    }
    // Both renderings share the cached pieces, so check the JSON keys and
    // cells against the CSV: equal except that JSON spells inf as null,
    // which reads back as nan.
    const Table from_csv = read_csv(csv);
    const Table from_json = read_json(json);
    EXPECT_EQ(from_json.columns(), sweep_columns(c.options)) << c.name;
    ASSERT_EQ(from_json.num_rows(), from_csv.num_rows()) << c.name;
    for (std::size_t r = 0; r < from_csv.num_rows(); ++r) {
      std::vector<std::string> expected = from_csv.row(r);
      for (std::string& cell : expected) {
        if (cell == "inf" || cell == "-inf") cell = "nan";
      }
      EXPECT_EQ(from_json.row(r), expected) << c.name << " row " << r;
    }
    if (std::string(c.name) == "k/gamma") {
      const Table& table = from_csv;
      const std::size_t margin = 11, critical = 12;
      ASSERT_EQ(table.columns()[critical], "critical_piece");
      ASSERT_EQ(table.columns()[margin], "margin");
      bool altruistic = false;
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        if (table.row(r)[critical] == "-1") {
          altruistic = true;
          EXPECT_EQ(table.row(r)[margin], "0");
        }
      }
      EXPECT_TRUE(altruistic);
    }
    if (std::string(c.name) == "large") {
      EXPECT_NE(csv.find("\n1e+05,"), std::string::npos);
      EXPECT_NE(json.find("{\"cell\": 1e+05, "), std::string::npos);
    }
  }
}

TEST(RunSweepStream, ReusedArenasCarryNoStaleBytesAcrossRuns) {
  // A grid far larger than the chunk ring recycles every arena many
  // times; a missing clear() would leave a prior cell's bytes in front
  // of a later cell's. Two back-to-back runs over the same engine state
  // must produce identical bytes — and the varying-width index column
  // (1 digit through 4 digits) makes any stale prefix shift the row.
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:64;us=0.2:1.7:32;k=1");
  SweepOptions options;
  options.theory_only = true;
  options.threads = 4;
  options.chunk = 3;
  const std::string first = stream_csv(grid, options);
  const std::string second = stream_csv(grid, options);
  EXPECT_EQ(first, second);
  std::size_t lines = 0;
  for (const char c : first) lines += c == '\n';
  EXPECT_EQ(lines, 64u * 32u + 1);
}

TEST(RunSweepStream, SummaryTalliesMatchTheTable) {
  const SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,9");
  SweepOptions options;
  options.horizon = 10;
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, sweep_columns(options));
  const SweepSummary summary = run_sweep_stream(grid, options, writer);
  writer.finish();
  EXPECT_EQ(summary.cells, 2u);
  EXPECT_EQ(summary.stable, 1u);
  EXPECT_EQ(summary.transient, 1u);
  EXPECT_EQ(summary.borderline, 0u);
  EXPECT_EQ(writer.rows_written(), 2u);
}

TEST(RunSweepStream, LargeTheoryOnlyGridStreamsThroughABoundedRing) {
  // 4096 cells with a tiny chunk: the cell ring is far smaller than the
  // grid, so every slot is recycled many times. Verdicts must still land
  // on the right rows — this is the ring-reuse regression test.
  const SweepGrid grid = parse_grid("lambda=0.5:3.0:64;us=0.2:1.7:64;k=1");
  SweepOptions options;
  options.theory_only = true;
  options.threads = 4;
  options.chunk = 8;
  const std::string csv = stream_csv(grid, options);
  SweepOptions serial = options;
  serial.threads = 1;
  serial.chunk = 0;
  EXPECT_EQ(csv, stream_csv(grid, serial));
  // 64 * 64 rows + header + trailing newline.
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 4096u + 1);
}

TEST(RunSweepStream, TheoryOnlySkipsSimulationButKeepsTheVerdicts) {
  const SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,9");
  SweepOptions options;
  options.theory_only = true;
  // replicas is ignored in theory-only mode: one closed-form item per
  // cell, sim columns NaN with replicas = 0.
  options.replicas = 8;
  const SweepResult result = run_sweep(grid, options);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].theory.verdict, Stability::kPositiveRecurrent);
  EXPECT_EQ(result.cells[1].theory.verdict, Stability::kTransient);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.sim.replicas, 0);
    EXPECT_TRUE(std::isnan(cell.sim.final_peers_mean));
    EXPECT_TRUE(std::isnan(cell.sim.mean_peers_mean));
  }
  EXPECT_EQ(stream_csv(grid, options),
            render(run_sweep(grid, options)));
}

TEST(RunSweepStream, TheoryOnlyStillRunsTheCtmcCrossCheck) {
  // theory_only skips the *simulator*; the CTMC solve is closed-form
  // linear algebra and stays available as the exact column.
  const SweepGrid grid = parse_grid("lambda=1;us=1;k=1;gamma=1.25");
  SweepOptions options;
  options.theory_only = true;
  options.ctmc_max_peers = 30;
  const SweepResult result = run_sweep(grid, options);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(std::isfinite(result.cells[0].ctmc_mean_peers));
  EXPECT_GT(result.cells[0].ctmc_mean_peers, 0.0);
}

TEST(RunSweepStreamDeath, WriterWithForeignColumnsAborts) {
  const SweepGrid grid = parse_grid("lambda=1;us=1;k=1");
  SweepOptions options;
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"wrong", "columns"});
  EXPECT_DEATH(run_sweep_stream(grid, options, writer), "sweep_columns");
  writer.finish();
}

TEST(SweepGridDeath, CellCountOverflowAbortsWithTheGridShape) {
  // Four 65536-point axes multiply to exactly 2^64: a hostile spec that
  // previously wrapped the size_t product to 0 and under-allocated the
  // sweep. The abort must name the axis sizes so the user sees which
  // spec did it.
  SweepGrid grid;
  for (const char* name : {"lambda", "us", "mu", "gamma"}) {
    Axis axis;
    axis.name = name;
    axis.values.assign(1u << 16, 1.0);
    grid.axes.push_back(std::move(axis));
  }
  EXPECT_DEATH(grid.num_cells(), "overflows size_t.*gamma\\[65536\\]");
}

TEST(RunSweepDeath, TheoryOnlyRefineAborts) {
  const SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,9");
  SweepOptions options;
  options.theory_only = true;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  EXPECT_DEATH(refine_frontier(grid, options, refine), "theory_only");
}

}  // namespace
}  // namespace p2p::engine
