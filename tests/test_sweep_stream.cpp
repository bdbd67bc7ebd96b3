// The streaming sweep pipeline's contract: run_sweep_stream emits the
// same bytes for any thread count and any chunk size while holding only
// a bounded ring of cells, and those bytes read back to the grid's own
// axis values and the Theorem-1 closed form. The archived corpora and CI
// determinism diffs ride on these bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stability.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

constexpr std::size_t kChunks[] = {1, 7, 0};  // 0 = auto

/// Checks the read CSV report `table` of `grid` under `options` against
/// values computed without the renderer. Row i is cell i; its axis cells are
/// the grid's values of that cell, bit for bit; its verdict, margin and
/// critical piece are classify() of that cell; and the per-type rate
/// cells are the mix interpolation (1 - mix) * lambda and
/// mix * lambda * rate.
void expect_rows_match_oracles(const SweepGrid& grid,
                               const SweepOptions& options,
                               const ReportTable& table,
                               const std::string& what) {
  const SweepGrid effective = with_default_axes(grid);
  const std::vector<CellResult> cells = decode_cells(table);
  ASSERT_EQ(cells.size(), effective.num_cells()) << what;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    const std::vector<double> values = effective.cell_values(i);
    const CellParams decoded{.lambda = c.lambda,
                             .us = c.us,
                             .mu = c.mu,
                             .gamma = c.gamma,
                             .eta = c.eta,
                             .mix = c.mix,
                             .hetero = c.hetero,
                             .k = c.k,
                             .flash = c.flash};
    CellParams p;
    p.policy = options.scenario.policy;
    ASSERT_EQ(c.index, i) << what;
    for (std::size_t a = 0; a < values.size(); ++a) {
      const std::string& name = effective.axes[a].name;
      set_param(p, name, values[a]);
      ASSERT_EQ(bits(param(decoded, name)), bits(param(p, name)))
          << what << " cell " << i << " axis " << name << ": "
          << param(decoded, name) << " vs " << param(p, name);
    }
    const StabilityReport want = classify(expand(options.scenario, p).params);
    ASSERT_EQ(c.theory.verdict, want.verdict) << what << " cell " << i;
    ASSERT_EQ(bits(c.theory.margin), bits(want.margin))
        << what << " cell " << i;
    ASSERT_EQ(c.theory.critical_piece, want.critical_piece)
        << what << " cell " << i;
    if (!options.scenario.empty()) {
      const ReportRow row(table, i);
      ASSERT_EQ(row.number(kLambdaEmptyColumn), (1.0 - p.mix) * p.lambda)
          << what << " cell " << i;
      for (const auto& stream : options.scenario.mix) {
        ASSERT_EQ(row.number(mix_column_name(stream.type)),
                  p.mix * p.lambda * stream.rate)
            << what << " cell " << i;
      }
    }
  }
}

/// The JSON report, read back, equals the CSV report read back, except
/// that JSON spells every non-finite number null, which
/// reads back as nan.
void expect_json_reads_as_csv(const std::string& json,
                              const ReportTable& from_csv,
                              const std::string& what) {
  const ReportTable from_json = read_report(json);
  EXPECT_EQ(from_json.columns(), from_csv.columns()) << what;
  ASSERT_EQ(from_json.num_rows(), from_csv.num_rows()) << what;
  for (std::size_t r = 0; r < from_csv.num_rows(); ++r) {
    std::vector<std::string> expected = from_csv.row(r);
    for (std::string& cell : expected) {
      if (cell == "inf" || cell == "-inf") cell = "nan";
    }
    ASSERT_EQ(from_json.row(r), expected) << what << " row " << r;
  }
}

TEST(RunSweepStream, GoldenGridRowsMatchTheGridAndTheClosedForm) {
  // The golden-schema grid from test_sweep_golden: replicas, CTMC
  // column, NaN uncertainty cells — everything the row formatter can
  // emit on the homogeneous slice.
  const SweepGrid grid =
      parse_grid("lambda=0.5:3.0:3;us=0.7,1.3;k=2;gamma=1.25");
  SweepOptions options;
  options.horizon = 40;
  options.replicas = 3;
  options.ctmc_max_peers = 10;
  const ReportTable table = read_report(sweep_report(grid, options));
  expect_rows_match_oracles(grid, options, table, "golden");
  expect_json_reads_as_csv(sweep_report(grid, options, ReportFormat::kJson),
                           table, "golden");
}

TEST(RunSweepStream, ScenarioRowsMatchTheGridAndTheClosedForm) {
  // Per-type arrival-rate columns exercise the scenario-dependent part
  // of the schema.
  SweepGrid grid = parse_grid("lambda=1,2;us=1;gamma=inf;k=4;mix=0,0.5,1");
  SweepOptions options;
  options.horizon = 20;
  options.replicas = 2;
  options.scenario = parse_scenario("example2:3,1");
  const ReportTable table = read_report(sweep_report(grid, options));
  expect_rows_match_oracles(grid, options, table, "example2");
  expect_json_reads_as_csv(sweep_report(grid, options, ReportFormat::kJson),
                           table, "example2");
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
    const std::string csv_ref = sweep_report(grid, base);
    const std::string json_ref = sweep_report(grid, base, ReportFormat::kJson);
    EXPECT_FALSE(csv_ref.empty());
    expect_rows_match_oracles(grid, base, read_report(csv_ref), shape.grid);
    for (const int threads : {1, 2, 4, 8}) {
      for (const std::size_t chunk : kChunks) {
        SweepOptions options = base;
        options.threads = threads;
        options.chunk = chunk;
        EXPECT_EQ(sweep_report(grid, options), csv_ref)
            << shape.grid << " threads " << threads << " chunk " << chunk;
        EXPECT_EQ(sweep_report(grid, options, ReportFormat::kJson), json_ref)
            << shape.grid << " threads " << threads << " chunk " << chunk;
      }
    }
  }
}

TEST(RunSweepStream, TheoryOnlyDeterminismMatrixMatchesTheOracles) {
  // The theory-only + replicas=1 streaming path takes the chunk-batched
  // route: a worker completes a whole claimed block into one arena and
  // the consumer emits it with a single write_rendered. The matrix pins
  // that route, in both formats, to the 1-thread chunk-1 bytes, and
  // those bytes to the grid's values and the closed form — along with
  // the cached-token fast paths (constant-axis runs, verdict /
  // critical-piece cells, the constant sim tail) that only exist on it.
  const SweepGrid grid =
      parse_grid("lambda=0.5:3.0:16;us=0.5,1.5;k=2;gamma=1.25");
  SweepOptions base;
  base.theory_only = true;
  base.chunk = 1;
  const std::string csv = sweep_report(grid, base);
  const std::string json = sweep_report(grid, base, ReportFormat::kJson);
  const ReportTable table = read_report(csv);
  expect_rows_match_oracles(grid, base, table, "theory-only");
  expect_json_reads_as_csv(json, table, "theory-only");
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t chunk : kChunks) {
      SweepOptions options = base;
      options.threads = threads;
      options.chunk = chunk;
      EXPECT_EQ(sweep_report(grid, options), csv)
          << "threads " << threads << " chunk " << chunk;
      EXPECT_EQ(sweep_report(grid, options, ReportFormat::kJson), json)
          << "threads " << threads << " chunk " << chunk;
    }
  }
}

TEST(RunSweepStream, EveryColumnFamilyMatchesTheOraclesAcrossTheMatrix) {
  // The streamed rows are assembled from the plan's cached pieces (axis
  // tokens, verdict + margin prefix, critical piece + constant sim tail)
  // plus directly formatted numbers. At every (threads, chunk), every
  // column family must read back to the grid's values and the closed
  // form, the bytes must equal the 1-thread chunk-1 run's, and the JSON
  // must read back as the CSV.
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
    SweepOptions base = c.options;
    base.chunk = 1;
    const std::string csv = sweep_report(grid, base);
    const std::string json = sweep_report(grid, base, ReportFormat::kJson);
    const ReportTable from_csv = read_report(csv);
    EXPECT_EQ(from_csv.columns(), sweep_columns(c.options)) << c.name;
    expect_rows_match_oracles(grid, base, from_csv, c.name);
    expect_json_reads_as_csv(json, from_csv, c.name);
    // A run with the reference's bytes passes the same checks; only a
    // run that differs is decoded again, to name what went wrong.
    for (const int threads : {1, 4}) {
      for (const std::size_t chunk : kChunks) {
        SweepOptions options = c.options;
        options.threads = threads;
        options.chunk = chunk;
        const std::string what = std::string(c.name) + " threads " +
                                 std::to_string(threads) + " chunk " +
                                 std::to_string(chunk);
        const std::string run_csv = sweep_report(grid, options);
        const std::string run_json =
            sweep_report(grid, options, ReportFormat::kJson);
        EXPECT_EQ(run_csv, csv) << what;
        EXPECT_EQ(run_json, json) << what;
        if (run_csv != csv || run_json != json) {
          const ReportTable run_table = read_report(run_csv);
          expect_rows_match_oracles(grid, options, run_table, what);
          expect_json_reads_as_csv(run_json, run_table, what);
        }
      }
    }
    if (std::string(c.name) == "k/gamma") {
      const ReportTable& table = from_csv;
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
  const std::string first = sweep_report(grid, options);
  const std::string second = sweep_report(grid, options);
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
  const std::string csv = sweep_report(grid, options);
  SweepOptions serial = options;
  serial.threads = 1;
  serial.chunk = 0;
  EXPECT_EQ(csv, sweep_report(grid, serial));
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
  const std::string csv = sweep_report(grid, options);
  const ReportTable table = read_report(csv);
  const std::vector<CellResult> cells = decode_cells(table);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].theory.verdict, Stability::kPositiveRecurrent);
  EXPECT_EQ(cells[1].theory.verdict, Stability::kTransient);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.sim.replicas, 0);
    EXPECT_TRUE(std::isnan(cell.sim.final_peers_mean));
    EXPECT_TRUE(std::isnan(cell.sim.mean_peers_mean));
  }
  expect_rows_match_oracles(grid, options, table, "theory-only x 8");
  // The ignored replica count leaves no trace in the bytes.
  SweepOptions one = options;
  one.replicas = 1;
  EXPECT_EQ(csv, sweep_report(grid, one));
}

TEST(RunSweepStream, TheoryOnlyStillRunsTheCtmcCrossCheck) {
  // theory_only skips the *simulator*; the CTMC solve is closed-form
  // linear algebra and stays available as the exact column.
  const SweepGrid grid = parse_grid("lambda=1;us=1;k=1;gamma=1.25");
  SweepOptions options;
  options.theory_only = true;
  options.ctmc_max_peers = 30;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(std::isfinite(cells[0].ctmc_mean_peers));
  EXPECT_GT(cells[0].ctmc_mean_peers, 0.0);
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
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, frontier_columns(options));
  EXPECT_DEATH(run_frontier_stream(grid, options, refine, writer),
               "theory_only");
  writer.finish();
}

}  // namespace
}  // namespace p2p::engine
