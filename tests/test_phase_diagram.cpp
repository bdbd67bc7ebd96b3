// Phase-diagram analysis: grid ingestion, scenario reconstruction,
// frontier re-derivation (cross-checked against run_frontier_stream and the
// paper's closed forms), and the theory-vs-sim agreement statistics.
#include "analysis/phase_diagram.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/csv_reader.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::analysis {
namespace {

using engine::parse_grid;
using engine::parse_scenario;
using engine::read_csv;
using engine::RefineOptions;
using engine::sweep_report;
using engine::SweepGrid;
using engine::SweepOptions;
using engine::Table;

Table small_region_table(int replicas = 1) {
  SweepGrid grid = parse_grid("k=1;mu=1;gamma=1.25;lambda=2,4,6;us=0.6,1.0");
  SweepOptions options;
  options.horizon = 30;
  options.replicas = replicas;
  return read_csv(sweep_report(grid, options));
}

TEST(BuildPhaseGrid, DetectsAxesAndIngestsCells) {
  const Table table = small_region_table();
  const PhaseGrid grid = build_phase_grid(table);
  // us is the later axis in emission order, so it is the fast (x) one.
  EXPECT_EQ(grid.x_axis, "us");
  EXPECT_EQ(grid.y_axis, "lambda");
  ASSERT_EQ(grid.x_values, (std::vector<double>{0.6, 1.0}));
  ASSERT_EQ(grid.y_values, (std::vector<double>{2, 4, 6}));
  ASSERT_EQ(grid.cells.size(), 6u);
  EXPECT_TRUE(grid.scenario.empty());

  // lambda* = 5 Us: (lambda=2, us=0.6) has threshold 3 > 2 -> stable;
  // (lambda=6, us=1.0) has threshold 5 < 6 -> transient.
  EXPECT_EQ(grid.at(0, 0).verdict, Stability::kPositiveRecurrent);
  EXPECT_EQ(grid.at(2, 1).verdict, Stability::kTransient);
  EXPECT_EQ(grid.at(1, 1).params.lambda, 4.0);
  EXPECT_EQ(grid.at(1, 1).params.us, 1.0);
  EXPECT_EQ(grid.at(1, 1).params.k, 1);
  EXPECT_NEAR(grid.at(0, 0).margin, 1.0, 1e-12);  // 5*0.6 - 2
  EXPECT_EQ(grid.at(0, 0).replicas, 1);
  EXPECT_TRUE(std::isfinite(grid.at(0, 0).sim_mean_peers));
}

TEST(BuildPhaseGrid, ExplicitAxesTranspose) {
  const Table table = small_region_table();
  const PhaseGrid grid = build_phase_grid(table, "lambda", "us");
  EXPECT_EQ(grid.x_axis, "lambda");
  EXPECT_EQ(grid.y_axis, "us");
  ASSERT_EQ(grid.x_values.size(), 3u);
  ASSERT_EQ(grid.y_values.size(), 2u);
  EXPECT_EQ(grid.at(1, 2).params.lambda, 6.0);
  EXPECT_EQ(grid.at(1, 2).params.us, 1.0);
}

TEST(BuildPhaseGrid, EitherAxisRequestAloneIsHonored) {
  const Table table = small_region_table();
  // --x alone: y defaults to the other varying axis.
  const PhaseGrid by_x = build_phase_grid(table, "lambda", "");
  EXPECT_EQ(by_x.x_axis, "lambda");
  EXPECT_EQ(by_x.y_axis, "us");
  // --y alone must be honored too, not silently ignored.
  const PhaseGrid by_y = build_phase_grid(table, "", "us");
  EXPECT_EQ(by_y.x_axis, "lambda");
  EXPECT_EQ(by_y.y_axis, "us");
  const PhaseGrid by_y2 = build_phase_grid(table, "", "lambda");
  EXPECT_EQ(by_y2.x_axis, "us");
  EXPECT_EQ(by_y2.y_axis, "lambda");
}

TEST(BuildPhaseGrid, ReconstructsScenarioFromPerTypeColumns) {
  SweepGrid sweep = parse_grid("k=4;us=1;gamma=inf;lambda=1.2,3;mix=0:1:3");
  SweepOptions options;
  options.horizon = 15;
  options.scenario = parse_scenario("example2:3,1");
  const Table table = read_csv(sweep_report(sweep, options));

  const PhaseGrid grid = build_phase_grid(table);
  ASSERT_EQ(grid.scenario.mix.size(), 2u);
  EXPECT_EQ(grid.scenario.num_pieces, 4);
  EXPECT_NEAR(grid.scenario.mix[0].rate, 0.75, 1e-12);
  EXPECT_NEAR(grid.scenario.mix[1].rate, 0.25, 1e-12);
  EXPECT_EQ(grid.scenario.mix[0].type, PieceSet::single(0).with(1));
  EXPECT_EQ(grid.scenario.mix[1].type, PieceSet::single(2).with(3));

  // The reconstruction must reproduce the archived physics: classify()
  // on every rebuilt cell agrees with the recorded verdict and margin.
  for (const PhaseCell& cell : grid.cells) {
    const StabilityReport report =
        classify(engine::expand(grid.scenario, cell.params).params);
    EXPECT_EQ(report.verdict, cell.verdict);
    EXPECT_NEAR(report.margin, cell.margin, 1e-9);
  }
}

TEST(ExtractFrontier, MatchesRefineFrontierBitForBit) {
  // The same coarse grid through both localizers: run_frontier_stream
  // at sweep time vs extract_frontier on the ingested table. Identical
  // brackets and bisection arithmetic => identical doubles.
  const std::string spec = "k=1;mu=1;gamma=1.25;us=0.4,0.8,1.2;lambda=1:9:5";
  SweepOptions options;
  options.horizon = 10;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-3;
  const auto points =
      engine::frontier_points(parse_grid(spec), options, refine);

  const Table table = read_csv(sweep_report(parse_grid(spec), options));
  const PhaseGrid grid = build_phase_grid(table, "lambda", "us");
  const auto extracted = extract_frontier(grid, refine.tol);

  ASSERT_EQ(extracted.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(extracted[i].bracketed, points[i].bracketed) << "row " << i;
    if (!points[i].bracketed) continue;
    EXPECT_EQ(extracted[i].value, points[i].value) << "row " << i;
    EXPECT_EQ(extracted[i].value_lo, points[i].value_lo) << "row " << i;
    EXPECT_EQ(extracted[i].value_hi, points[i].value_hi) << "row " << i;
    EXPECT_EQ(extracted[i].margin, points[i].margin) << "row " << i;
  }
}

TEST(ExtractFrontier, LandsOnTheClosedForms) {
  // lambda* = 5 Us for K = 1, mu = 1, gamma = 1.25 (Example 1 slice).
  SweepOptions options;
  options.horizon = 10;
  options.theory_only = true;
  const Table table = read_csv(sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;us=0.4,0.8,1.2;lambda=0.5:9.5:10"),
      options));
  const PhaseGrid grid = build_phase_grid(table, "lambda", "us");
  const auto frontier = extract_frontier(grid, 1e-4);
  ASSERT_EQ(frontier.size(), 3u);
  const double expected[] = {2.0, 4.0, 6.0};
  for (int row = 0; row < 3; ++row) {
    ASSERT_TRUE(frontier[row].bracketed) << "row " << row;
    EXPECT_NEAR(frontier[row].value, expected[row], 1e-4) << "row " << row;
    EXPECT_NEAR(frontier[row].margin, 0.0, 1e-3) << "row " << row;
  }
}

TEST(ExtractFrontier, OneClubFrontierAtSeedProvisioningBound) {
  // One-club arrivals (Section V): the flip along lambda sits at
  // Us / (1 - mu/gamma) regardless of the mix level — here 1 / 0.2 = 5.
  SweepOptions options;
  options.horizon = 10;
  options.theory_only = true;
  options.scenario = parse_scenario("oneclub:4");
  const Table table = read_csv(sweep_report(
      parse_grid("k=4;us=1;mu=1;gamma=1.25;mix=0,0.5,1;lambda=1:9:5"),
      options));
  const PhaseGrid grid = build_phase_grid(table, "lambda", "mix");
  const auto frontier = extract_frontier(grid, 1e-4);
  ASSERT_EQ(frontier.size(), 3u);
  for (int row = 0; row < 3; ++row) {
    ASSERT_TRUE(frontier[row].bracketed) << "row " << row;
    EXPECT_NEAR(frontier[row].value, 5.0, 1e-4) << "row " << row;
  }
}

TEST(ExtractFrontier, MarginInterpolationIsExactWhenMarginIsLinear) {
  // K = 1: margin = 5 Us - lambda, exactly linear in lambda — the
  // interpolated estimate IS the frontier, to fp precision, and the
  // bisected value agrees to its tolerance.
  SweepOptions options;
  options.horizon = 10;
  options.theory_only = true;
  const Table table = read_csv(sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;us=1;lambda=4,6"), options));
  const PhaseGrid grid = build_phase_grid(table, "lambda", "us");
  const auto frontier = extract_frontier(grid, 1e-6);
  ASSERT_EQ(frontier.size(), 1u);
  ASSERT_TRUE(frontier[0].bracketed);
  EXPECT_NEAR(frontier[0].interpolated, 5.0, 1e-12);
  EXPECT_NEAR(frontier[0].value, 5.0, 1e-6);
}

TEST(ExtractFrontier, ThreadCountCannotChangeTheResult) {
  SweepOptions options;
  options.horizon = 10;
  options.theory_only = true;
  const Table table = read_csv(sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;us=0.2:1.7:8;lambda=0.5:9.5:12"),
      options));
  const PhaseGrid grid = build_phase_grid(table, "lambda", "us");
  const auto one = extract_frontier(grid, 1e-3, 1);
  const auto four = extract_frontier(grid, 1e-3, 4);
  ASSERT_EQ(one.size(), four.size());
  const auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || a == b;
  };
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].bracketed, four[i].bracketed) << "row " << i;
    EXPECT_TRUE(same(one[i].value, four[i].value)) << "row " << i;
    EXPECT_TRUE(same(one[i].value_lo, four[i].value_lo)) << "row " << i;
    EXPECT_TRUE(same(one[i].value_hi, four[i].value_hi)) << "row " << i;
    EXPECT_TRUE(same(one[i].interpolated, four[i].interpolated))
        << "row " << i;
    EXPECT_TRUE(same(one[i].margin, four[i].margin)) << "row " << i;
  }
}

TEST(VerdictAgreement, CountsAndBootstrapCi) {
  const Table table = small_region_table(/*replicas=*/3);
  const PhaseGrid grid = build_phase_grid(table);
  const VerdictAgreement agreement = verdict_agreement(grid);
  EXPECT_EQ(agreement.cells_with_sim, 6u);
  EXPECT_EQ(agreement.compared, 6u);
  EXPECT_TRUE(std::isfinite(agreement.threshold));
  EXPECT_GE(agreement.agreement, 0.0);
  EXPECT_LE(agreement.agreement, 1.0);
  EXPECT_LE(agreement.agreement_lo, agreement.agreement);
  EXPECT_GE(agreement.agreement_hi, agreement.agreement);
  std::size_t total = 0;
  for (int v = 0; v < 3; ++v) {
    total += agreement.counts[v][0] + agreement.counts[v][1];
  }
  EXPECT_EQ(total, 6u);
  // Deterministic: same seed, same result.
  const VerdictAgreement again = verdict_agreement(grid);
  EXPECT_EQ(again.agreement_lo, agreement.agreement_lo);
  EXPECT_EQ(again.agreement_hi, agreement.agreement_hi);
}

TEST(VerdictAgreement, TheoryOnlyGridHasNoSimCells) {
  SweepOptions options;
  options.horizon = 10;
  options.theory_only = true;
  const Table table = read_csv(sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;us=0.6,1.0;lambda=2,6"),
      options));
  const VerdictAgreement agreement =
      verdict_agreement(build_phase_grid(table));
  EXPECT_EQ(agreement.cells_with_sim, 0u);
  EXPECT_TRUE(std::isnan(agreement.agreement));
  EXPECT_TRUE(std::isnan(agreement.threshold));
}

/// True when two grids agree field for field (NaN == NaN, -0 != +0).
void expect_grids_identical(const PhaseGrid& a, const PhaseGrid& b,
                            const std::string& what) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  EXPECT_EQ(a.x_axis, b.x_axis) << what;
  EXPECT_EQ(a.y_axis, b.y_axis) << what;
  EXPECT_EQ(a.x_values, b.x_values) << what;
  EXPECT_EQ(a.y_values, b.y_values) << what;
  EXPECT_EQ(a.policy, b.policy) << what;
  EXPECT_EQ(a.has_fluid, b.has_fluid) << what;
  EXPECT_EQ(a.scenario.name, b.scenario.name) << what;
  EXPECT_EQ(a.scenario.num_pieces, b.scenario.num_pieces) << what;
  ASSERT_EQ(a.scenario.mix.size(), b.scenario.mix.size()) << what;
  for (std::size_t i = 0; i < a.scenario.mix.size(); ++i) {
    EXPECT_EQ(a.scenario.mix[i].type, b.scenario.mix[i].type) << what;
    EXPECT_TRUE(same(a.scenario.mix[i].rate, b.scenario.mix[i].rate)) << what;
  }
  ASSERT_EQ(a.cells.size(), b.cells.size()) << what;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const PhaseCell& x = a.cells[i];
    const PhaseCell& y = b.cells[i];
    const bool equal =
        same(x.params.lambda, y.params.lambda) &&
        same(x.params.us, y.params.us) && same(x.params.mu, y.params.mu) &&
        same(x.params.gamma, y.params.gamma) && x.params.k == y.params.k &&
        same(x.params.eta, y.params.eta) && x.params.flash == y.params.flash &&
        same(x.params.mix, y.params.mix) &&
        same(x.params.hetero, y.params.hetero) && x.verdict == y.verdict &&
        same(x.margin, y.margin) && x.replicas == y.replicas &&
        same(x.sim_mean_peers, y.sim_mean_peers) &&
        same(x.ctmc_mean_peers, y.ctmc_mean_peers) && x.fluid == y.fluid;
    EXPECT_TRUE(equal) << what << ": cell " << i;
    if (!equal) return;
  }
}

std::string slurp_archive(const std::string& name) {
  std::ifstream in(std::string(P2P_EXPERIMENTS_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// build_phase_grid over `text` through a CsvReader cutting
/// `batch_bytes` batches, decoded on `threads` threads.
PhaseGrid ingest(const std::string& text, std::size_t batch_bytes,
                 int threads, const std::string& x = "",
                 const std::string& y = "") {
  engine::CsvReader reader = engine::CsvReader::from_text(text);
  reader.set_batch_bytes(batch_bytes);
  return build_phase_grid(reader, x, y, threads);
}

TEST(BuildPhaseGrid, BatchedIngestIsIdenticalAtEveryThreadCount) {
  // A 160 x 160 theory corpus spans four default (1 MiB) batches; every
  // thread count, in the default and the transposed orientation, must
  // rebuild the grid the Table overload builds from the same bytes.
  SweepOptions options;
  options.theory_only = true;
  const std::string corpus = engine::sweep_report(
      parse_grid("lambda=0.5:3.0:160;us=0.2:1.7:160"), options);
  ASSERT_GT(corpus.size(), 3 * engine::CsvReader::kBatchBytes);
  const Table table = engine::read_csv(corpus);
  for (const bool transposed : {false, true}) {
    const std::string x = transposed ? "lambda" : "";
    const std::string y = transposed ? "us" : "";
    const PhaseGrid reference = build_phase_grid(table, x, y);
    for (const int threads : {1, 2, 4, 8}) {
      expect_grids_identical(
          ingest(corpus, engine::CsvReader::kBatchBytes, threads, x, y),
          reference,
          "threads " + std::to_string(threads) +
              (transposed ? " transposed" : ""));
    }
  }
}

TEST(BuildPhaseGrid, WorkerConstructedCellsKeepTheirDefaults) {
  // The ingest leaves grown cells unconstructed until the decoding
  // worker constructs each one, so a cell it skipped would read as the
  // mapping's zero bytes (fluid 0 = positive-recurrent). This grid is
  // past 2 MiB — page-mapped and huge-page eligible — and the corpus
  // has no fluid_verdict column: every cell must equal a
  // value-initialized cell carrying the sweep's own numbers.
  constexpr std::size_t kSide = 160;
  SweepOptions options;
  options.theory_only = true;
  const std::string corpus =
      sweep_report(parse_grid("lambda=0.5:3.0:160;us=0.2:1.7:160"), options);
  const Table table = engine::read_csv(corpus);
  const std::vector<engine::CellResult> cells = engine::decode_cells(table);
  ASSERT_GT(cells.size() * sizeof(PhaseCell), std::size_t{2} << 20);
  ASSERT_EQ(corpus.find("fluid_verdict"), std::string::npos);

  for (const bool transposed : {false, true}) {
    const std::string x = transposed ? "lambda" : "";
    const std::string y = transposed ? "us" : "";
    // Cell r of the sweep is (lambda index r / kSide, us index r % kSide);
    // the default grid keeps that order, the transposed one puts lambda
    // on x.
    PhaseGrid reference = build_phase_grid(table, x, y);
    reference.cells.clear();
    for (std::size_t slot = 0; slot < cells.size(); ++slot) {
      const std::size_t r =
          transposed ? (slot % kSide) * kSide + slot / kSide : slot;
      const engine::CellResult& cell = cells[r];
      PhaseCell c{};
      c.params.lambda = cell.lambda;
      c.params.us = cell.us;
      c.params.mu = cell.mu;
      c.params.gamma = cell.gamma;
      c.params.k = cell.k;
      c.params.eta = cell.eta;
      c.params.flash = cell.flash;
      c.params.mix = cell.mix;
      c.params.hetero = cell.hetero;
      c.verdict = cell.theory.verdict;
      c.margin = cell.theory.margin;
      c.replicas = cell.sim.replicas;
      c.sim_mean_peers = cell.sim.mean_peers_mean;
      c.ctmc_mean_peers = cell.ctmc_mean_peers;
      reference.cells.push_back(c);
    }
    const std::string orientation = transposed ? " transposed" : "";
    const PhaseGrid from_table = build_phase_grid(table, x, y);
    expect_grids_identical(from_table, reference, "table" + orientation);
    for (const PhaseCell& c : from_table.cells) {
      ASSERT_EQ(c.fluid, Stability::kBorderline) << "table" << orientation;
    }
    for (const int threads : {1, 2, 4, 8}) {
      const std::string what =
          "threads " + std::to_string(threads) + orientation;
      const PhaseGrid grid =
          ingest(corpus, engine::CsvReader::kBatchBytes, threads, x, y);
      expect_grids_identical(grid, reference, what);
      for (const PhaseCell& c : grid.cells) {
        ASSERT_EQ(c.fluid, Stability::kBorderline) << what;
      }
    }
  }
}

TEST(BuildPhaseGrid, ArchivesIngestIdenticallyAtEveryThreadCount) {
  // The scenario archive (per-type block) and the policy + fluid archive
  // (trailing sim_backend/policy/fluid_verdict), cut into ~1 KiB batches
  // so each spans several.
  for (const char* name :
       {"mix_example2_region.csv", "policy_rarest_region.csv"}) {
    const std::string text = slurp_archive(name);
    ASSERT_FALSE(text.empty()) << name;
    const PhaseGrid reference = build_phase_grid(engine::read_csv(text));
    for (const int threads : {1, 2, 4, 8}) {
      expect_grids_identical(ingest(text, 1024, threads), reference,
                             std::string(name) + " threads " +
                                 std::to_string(threads));
    }
  }
}

TEST(PhaseCells, KeepCellsAcrossTheMappingThreshold) {
  // Grown past PageAllocator's threshold, the storage moves from the
  // heap to a mapped block; copies and moves keep every cell.
  const std::size_t n =
      2 * engine::PageAllocator<PhaseCell>::kMapBytes / sizeof(PhaseCell);
  PhaseCells cells;
  for (std::size_t i = 0; i < n; ++i) {
    PhaseCell cell;
    cell.margin = static_cast<double>(i);
    cells.push_back(cell);
  }
  const PhaseCells copy = cells;
  const PhaseCells moved = std::move(cells);
  ASSERT_EQ(copy.size(), n);
  ASSERT_EQ(moved.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(copy[i].margin, static_cast<double>(i)) << i;
    ASSERT_EQ(moved[i].margin, static_cast<double>(i)) << i;
  }
}

TEST(BuildPhaseGridDeath, EarliestMalformedRowWinsAtAnyThreadCount) {
  // Two bad rows in different batches of one round (4 KiB batches hold
  // ~30 rows, and a 4-thread round decodes four of them at once):
  // whichever worker finishes first, the abort names the earlier row —
  // also when the later fault is the reader's own (a truncated final
  // record, in the last round).
  SweepOptions options;
  options.theory_only = true;
  std::string corpus =
      sweep_report(parse_grid("lambda=0.5:3.0:64;us=0.2:1.7:64"), options);
  const auto row_start = [&](int row) {
    std::size_t pos = 0;
    for (int i = 0; i <= row; ++i) pos = corpus.find('\n', pos) + 1;
    return pos;
  };
  // Row 100: a verdict no writer emits; row 40: a lambda cell that is
  // not a number.
  const std::size_t late = corpus.find("positive-recurrent", row_start(100));
  corpus.replace(late, std::strlen("positive-recurrent"), "wobbly");
  const std::size_t early = corpus.find(',', row_start(40)) + 1;
  corpus.replace(early, corpus.find(',', early) - early, "x");
  EXPECT_DEATH(ingest(corpus, 4096, 4),
               "got \"x\" in grid report row 40\n");
  EXPECT_DEATH(ingest(corpus.substr(0, corpus.size() - 1), 4096, 4),
               "got \"x\" in grid report row 40\n");
  // Without the early fault, the later one is reported.
  std::string late_only = corpus;
  late_only.replace(early, 1, "1");
  EXPECT_DEATH(ingest(late_only, 4096, 4),
               "unknown verdict \"wobbly\" in grid report row 100\n");
}

TEST(BuildPhaseGridDeath, FrontierTableAborts) {
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  const Table table = read_csv(engine::frontier_report(
      parse_grid("k=1;us=1;lambda=1,9"), options, refine));
  EXPECT_DEATH(build_phase_grid(table), "not frontier");
}

TEST(BuildPhaseGridDeath, ThirdVaryingAxisAborts) {
  SweepOptions options;
  options.horizon = 5;
  options.theory_only = true;
  const Table table = read_csv(sweep_report(
      parse_grid("k=1;mu=1,2;us=0.6,1.0;lambda=2,6"), options));
  EXPECT_DEATH(build_phase_grid(table, "lambda", "us"),
               "\"mu\" varies");
  EXPECT_DEATH(build_phase_grid(table), "varies but is neither");
}

TEST(BuildPhaseGridDeath, NonFiniteCoordinateAborts) {
  // A NaN lambda is a corrupt coordinate, not a renderable cell.
  Table table = small_region_table();
  Table corrupt(table.columns());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> row = table.row(r);
    if (r == 2) row[1] = "nan";
    corrupt.add_row(std::move(row));
  }
  EXPECT_DEATH(build_phase_grid(corrupt), "lambda must be a positive");
}

TEST(BuildPhaseGridDeath, MissingCellAborts) {
  const Table table = small_region_table();
  Table partial(table.columns());
  for (std::size_t r = 0; r + 1 < table.num_rows(); ++r) {
    partial.add_row(table.row(r));
  }
  EXPECT_DEATH(build_phase_grid(partial), "do not tile");
}

TEST(BuildPhaseGridDeath, OutOfOrderCellIndexAborts) {
  const Table table = small_region_table();
  Table shuffled(table.columns());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    shuffled.add_row(table.row(table.num_rows() - 1 - r));
  }
  EXPECT_DEATH(build_phase_grid(shuffled), "0..n-1 in row order");
}

TEST(BuildPhaseGridDeath, DuplicateCoordinateAborts) {
  Table table({"cell", "lambda", "us", "mu", "gamma", "k", "eta", "flash",
               "mix", "hetero", "verdict", "margin", "critical_piece",
               "replicas", "sim_final_peers", "sim_mean_peers",
               "sim_mean_sojourn", "sim_mean_peers_sem",
               "sim_mean_peers_lo", "sim_mean_peers_hi",
               "ctmc_mean_peers"});
  const auto row = [&](int cell, const char* lambda, const char* us) {
    table.add_row({std::to_string(cell), lambda, us, "1", "1.25", "1", "1",
                   "0", "0", "0", "transient", "-1", "0", "0", "nan", "nan",
                   "nan", "nan", "nan", "nan", "nan"});
  };
  row(0, "1", "0.5");
  row(1, "2", "0.5");
  row(2, "1", "0.7");
  row(3, "1", "0.7");  // repeats (lambda=1, us=0.7)
  EXPECT_DEATH(build_phase_grid(table, "lambda", "us"), "repeats the cell");
}

TEST(BuildPhaseGridDeath, ContradictoryPerTypeColumnAborts) {
  SweepGrid sweep = parse_grid("k=4;us=1;gamma=inf;lambda=1.2,3;mix=0:1:3");
  SweepOptions options;
  options.horizon = 10;
  options.theory_only = true;
  options.scenario = parse_scenario("example2:3,1");
  const Table table = read_csv(sweep_report(sweep, options));
  Table corrupt(table.columns());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> row = table.row(r);
    if (r == 1) row[11] = "0.42";  // lambda_t1.2 off its mix * lambda share
    corrupt.add_row(std::move(row));
  }
  EXPECT_DEATH(build_phase_grid(corrupt), "contradicts");
}

TEST(BuildPhaseGridDeath, UnknownVerdictAborts) {
  Table table = small_region_table();
  Table corrupt(table.columns());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> row = table.row(r);
    if (r == 0) row[10] = "wobbly";
    corrupt.add_row(std::move(row));
  }
  EXPECT_DEATH(build_phase_grid(corrupt), "unknown verdict");
}

}  // namespace
}  // namespace p2p::analysis
