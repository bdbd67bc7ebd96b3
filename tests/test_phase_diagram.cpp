// Phase-diagram analysis: grid ingestion, scenario reconstruction,
// frontier re-derivation (cross-checked against run_frontier_stream and the
// paper's closed forms), and the theory-vs-sim agreement statistics.
#include "analysis/phase_diagram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/csv_reader.hpp"
#include "engine/sweep.hpp"
#include "rand/rng.hpp"
#include "report_helpers.hpp"

namespace p2p::analysis {
namespace {

using engine::parse_grid;
using engine::parse_scenario;
using engine::phase_grid_of;
using engine::read_report;
using engine::RefineOptions;
using engine::ReportFormat;
using engine::ReportTable;
using engine::sweep_report;
using engine::SweepGrid;
using engine::SweepOptions;

constexpr ReportFormat kBothFormats[] = {ReportFormat::kCsv,
                                         ReportFormat::kJson};

std::string format_name(ReportFormat format) {
  return format == ReportFormat::kCsv ? "csv" : "json";
}

std::string small_region_report(int replicas = 1) {
  SweepGrid grid = parse_grid("k=1;mu=1;gamma=1.25;lambda=2,4,6;us=0.6,1.0");
  SweepOptions options;
  options.horizon = 30;
  options.replicas = replicas;
  return sweep_report(grid, options);
}

/// Aborts with `message` when `table`'s rows are ingested, whichever
/// dialect carries them.
void expect_ingest_death(const ReportTable& table, const std::string& message,
                         const std::string& x = "", const std::string& y = "") {
  for (const ReportFormat format : kBothFormats) {
    EXPECT_DEATH(phase_grid_of(table, x, y, format), message)
        << format_name(format);
  }
}

TEST(BuildPhaseGrid, DetectsAxesAndIngestsCells) {
  const PhaseGrid grid = phase_grid_of(small_region_report());
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
  const PhaseGrid grid =
      phase_grid_of(small_region_report(), "lambda", "us");
  EXPECT_EQ(grid.x_axis, "lambda");
  EXPECT_EQ(grid.y_axis, "us");
  ASSERT_EQ(grid.x_values.size(), 3u);
  ASSERT_EQ(grid.y_values.size(), 2u);
  EXPECT_EQ(grid.at(1, 2).params.lambda, 6.0);
  EXPECT_EQ(grid.at(1, 2).params.us, 1.0);
}

TEST(BuildPhaseGrid, EitherAxisRequestAloneIsHonored) {
  const std::string table = small_region_report();
  // --x alone: y defaults to the other varying axis.
  const PhaseGrid by_x = phase_grid_of(table, "lambda", "");
  EXPECT_EQ(by_x.x_axis, "lambda");
  EXPECT_EQ(by_x.y_axis, "us");
  // --y alone must be honored too, not silently ignored.
  const PhaseGrid by_y = phase_grid_of(table, "", "us");
  EXPECT_EQ(by_y.x_axis, "lambda");
  EXPECT_EQ(by_y.y_axis, "us");
  const PhaseGrid by_y2 = phase_grid_of(table, "", "lambda");
  EXPECT_EQ(by_y2.x_axis, "us");
  EXPECT_EQ(by_y2.y_axis, "lambda");
}

TEST(BuildPhaseGrid, ReconstructsScenarioFromPerTypeColumns) {
  SweepGrid sweep = parse_grid("k=4;us=1;gamma=inf;lambda=1.2,3;mix=0:1:3");
  SweepOptions options;
  options.horizon = 15;
  options.scenario = parse_scenario("example2:3,1");
  const PhaseGrid grid = phase_grid_of(sweep_report(sweep, options));
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

  const PhaseGrid grid =
      phase_grid_of(sweep_report(parse_grid(spec), options), "lambda", "us");
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
  const std::string report = sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;us=0.4,0.8,1.2;lambda=0.5:9.5:10"),
      options);
  const PhaseGrid grid = phase_grid_of(report, "lambda", "us");
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
  const std::string report = sweep_report(
      parse_grid("k=4;us=1;mu=1;gamma=1.25;mix=0,0.5,1;lambda=1:9:5"),
      options);
  const PhaseGrid grid = phase_grid_of(report, "lambda", "mix");
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
  const std::string report = sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;us=1;lambda=4,6"), options);
  const PhaseGrid grid = phase_grid_of(report, "lambda", "us");
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
  const std::string report = sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;us=0.2:1.7:8;lambda=0.5:9.5:12"),
      options);
  const PhaseGrid grid = phase_grid_of(report, "lambda", "us");
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
  const PhaseGrid grid = phase_grid_of(small_region_report(/*replicas=*/3));
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
  const std::string report = sweep_report(
      parse_grid("k=1;mu=1;gamma=1.25;us=0.6,1.0;lambda=2,6"),
      options);
  const VerdictAgreement agreement =
      verdict_agreement(phase_grid_of(report));
  EXPECT_EQ(agreement.cells_with_sim, 0u);
  EXPECT_TRUE(std::isnan(agreement.agreement));
  EXPECT_TRUE(std::isnan(agreement.threshold));
}

TEST(VerdictAgreement, ManyBlockGridMatchesAtEveryThreadCount) {
  // 87,000 cells — five whole 16,384-cell scan blocks and a partial one
  // — with fluid verdicts, some cells unsimulated (no replicas or a NaN
  // mean), and the rest simulated. Every field must match at every
  // thread count, and the tallies must match a plain serial count.
  PhaseGrid grid;
  grid.x_axis = "us";
  grid.y_axis = "lambda";
  grid.has_fluid = true;
  constexpr std::size_t kNx = 300, kNy = 290;
  for (std::size_t i = 0; i < kNx; ++i) grid.x_values.push_back(0.01 * i);
  for (std::size_t i = 0; i < kNy; ++i) {
    grid.y_values.push_back(0.1 + 0.01 * i);
  }
  Rng rng(20261020);
  std::size_t counts[3][2] = {}, fluid_counts[3][3] = {};
  std::size_t with_sim = 0, fluid_compared = 0, fluid_agreeing = 0;
  std::vector<double> indicators;  // in grid order
  for (std::size_t i = 0; i < kNx * kNy; ++i) {
    PhaseCell c;
    c.verdict = static_cast<Stability>(rng.uniform_int(std::uint64_t{3}));
    c.fluid = static_cast<Stability>(rng.uniform_int(std::uint64_t{3}));
    c.replicas = static_cast<int>(rng.uniform_int(std::uint64_t{4}));
    c.sim_mean_peers = rng.bernoulli(0.1) ? std::nan("") : 100 * rng.uniform();
    grid.cells.push_back(c);
    fluid_counts[static_cast<int>(c.verdict)][static_cast<int>(c.fluid)] += 1;
    if (c.verdict != Stability::kBorderline &&
        c.fluid != Stability::kBorderline) {
      ++fluid_compared;
      fluid_agreeing += c.verdict == c.fluid;
    }
    if (c.replicas > 0 && std::isfinite(c.sim_mean_peers)) {
      ++with_sim;
      const bool busy = c.sim_mean_peers > 50;
      counts[static_cast<int>(c.verdict)][busy ? 1 : 0] += 1;
      if (c.verdict != Stability::kBorderline) {
        indicators.push_back((c.verdict == Stability::kTransient) == busy);
      }
    }
  }
  // The bootstrap must resample the indicators in grid order.
  Rng boot(7);
  const BootstrapResult ci = block_bootstrap(
      indicators,
      [](std::span<const double> x) {
        double m = 0;
        for (const double v : x) m += v;
        return m / static_cast<double>(x.size());
      },
      1, 64, 0.95, boot);
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const VerdictAgreement one =
      verdict_agreement(grid, 50, 0.95, 64, 7, /*threads=*/1);
  EXPECT_EQ(one.cells_with_sim, with_sim);
  EXPECT_EQ(one.fluid_compared, fluid_compared);
  EXPECT_EQ(one.fluid_agreeing, fluid_agreeing);
  EXPECT_EQ(std::memcmp(one.fluid_counts, fluid_counts, sizeof fluid_counts),
            0);
  EXPECT_EQ(std::memcmp(one.counts, counts, sizeof counts), 0);
  EXPECT_EQ(one.compared, indicators.size());
  EXPECT_TRUE(same(one.agreement_lo, ci.lower));
  EXPECT_TRUE(same(one.agreement_hi, ci.upper));
  EXPECT_LT(one.agreement_lo, one.agreement_hi);
  for (const double threshold : {50.0, std::nan("")}) {
    const VerdictAgreement want =
        verdict_agreement(grid, threshold, 0.95, 64, 7, 1);
    for (const int threads : {2, 4, 8}) {
      const VerdictAgreement got =
          verdict_agreement(grid, threshold, 0.95, 64, 7, threads);
      const std::string what = "threads " + std::to_string(threads);
      EXPECT_TRUE(same(got.threshold, want.threshold)) << what;
      EXPECT_EQ(std::memcmp(got.counts, want.counts, sizeof got.counts), 0)
          << what;
      EXPECT_EQ(got.cells_with_sim, want.cells_with_sim) << what;
      EXPECT_EQ(got.compared, want.compared) << what;
      EXPECT_EQ(got.agreeing, want.agreeing) << what;
      EXPECT_TRUE(same(got.agreement, want.agreement)) << what;
      EXPECT_TRUE(same(got.agreement_lo, want.agreement_lo)) << what;
      EXPECT_TRUE(same(got.agreement_hi, want.agreement_hi)) << what;
      EXPECT_EQ(got.has_fluid, want.has_fluid) << what;
      EXPECT_EQ(std::memcmp(got.counts3, want.counts3, sizeof got.counts3), 0)
          << what;
      EXPECT_EQ(std::memcmp(got.fluid_counts, want.fluid_counts,
                            sizeof got.fluid_counts),
                0)
          << what;
      EXPECT_EQ(got.fluid_compared, want.fluid_compared) << what;
      EXPECT_EQ(got.fluid_agreeing, want.fluid_agreeing) << what;
    }
  }
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
  return phase_grid_of(text, x, y, threads, batch_bytes);
}

/// `report` in `format`: the CSV itself, or its rows as report JSON.
std::string in_format(const std::string& report, ReportFormat format) {
  return format == ReportFormat::kCsv
             ? report
             : engine::render_table(read_report(report), format);
}

/// The phase grid a theory-only sweep of `spec` (two varying axes, the
/// rest at default_region_grid's values) must ingest to, derived
/// without the reader: axis values from the spec, each cell's verdict
/// and margin from classify(). `transposed` puts the earlier axis on x.
PhaseGrid theory_oracle(const std::string& spec, bool transposed) {
  const SweepGrid grid = engine::with_default_axes(parse_grid(spec));
  std::vector<const engine::Axis*> varying;
  for (const engine::Axis& axis : grid.axes) {
    if (axis.values.size() > 1) varying.push_back(&axis);
  }
  EXPECT_EQ(varying.size(), 2u);
  const engine::Axis& x = *varying[transposed ? 0 : 1];
  const engine::Axis& y = *varying[transposed ? 1 : 0];
  engine::CellParams base;
  const std::vector<double> first = grid.cell_values(0);
  for (std::size_t a = 0; a < grid.axes.size(); ++a) {
    engine::set_param(base, grid.axes[a].name, first[a]);
  }
  PhaseGrid oracle;
  oracle.x_axis = x.name;
  oracle.y_axis = y.name;
  oracle.x_values = x.values;
  oracle.y_values = y.values;
  for (const double yv : y.values) {
    for (const double xv : x.values) {
      PhaseCell c{};
      c.params = base;
      engine::set_param(c.params, x.name, xv);
      engine::set_param(c.params, y.name, yv);
      const StabilityReport report =
          classify(engine::expand(oracle.scenario, c.params).params);
      c.verdict = report.verdict;
      c.margin = report.margin;
      oracle.cells.push_back(c);
    }
  }
  return oracle;
}

TEST(BuildPhaseGrid, BatchedIngestIsIdenticalAtEveryThreadCount) {
  // A 160 x 160 theory corpus spans four default (1 MiB) batches as CSV
  // and ten as JSON. Every thread count, in the default and the
  // transposed orientation, must rebuild the grid the spec and the
  // closed form define: its axis values, and classify()'s verdict and
  // margin in every cell (the report's shortest round-trip spelling
  // reads back the exact double).
  const std::string spec = "lambda=0.5:3.0:160;us=0.2:1.7:160";
  SweepOptions options;
  options.theory_only = true;
  const std::string csv = sweep_report(parse_grid(spec), options);
  ASSERT_GT(csv.size(), 3 * engine::CsvReader::kBatchBytes);
  for (const ReportFormat format : kBothFormats) {
    const std::string corpus = in_format(csv, format);
    for (const bool transposed : {false, true}) {
      const std::string x = transposed ? "lambda" : "";
      const std::string y = transposed ? "us" : "";
      const PhaseGrid oracle = theory_oracle(spec, transposed);
      for (const int threads : {1, 2, 4, 8}) {
        expect_grids_identical(
            ingest(corpus, engine::CsvReader::kBatchBytes, threads, x, y),
            oracle,
            format_name(format) + " threads " + std::to_string(threads) +
                (transposed ? " transposed" : ""));
      }
    }
  }
}

TEST(BuildPhaseGrid, WorkerConstructedCellsKeepTheirDefaults) {
  // The ingest leaves grown cells unconstructed until the decoding
  // worker constructs each one, so a cell it skipped would read as the
  // mapping's zero bytes (fluid 0 = positive-recurrent). This grid is
  // past 2 MiB — page-mapped and huge-page eligible — and the corpus
  // has no fluid_verdict column: every cell must equal a
  // value-initialized cell carrying the sweep's own numbers, decoded
  // here by column name.
  constexpr std::size_t kSide = 160;
  const std::string spec = "lambda=0.5:3.0:160;us=0.2:1.7:160";
  SweepOptions options;
  options.theory_only = true;
  const std::string csv = sweep_report(parse_grid(spec), options);
  const std::vector<engine::CellResult> cells =
      engine::decode_cells(read_report(csv));
  ASSERT_GT(cells.size() * sizeof(PhaseCell), std::size_t{2} << 20);
  ASSERT_EQ(csv.find("fluid_verdict"), std::string::npos);

  for (const ReportFormat format : kBothFormats) {
    const std::string corpus = in_format(csv, format);
    for (const bool transposed : {false, true}) {
      const std::string x = transposed ? "lambda" : "";
      const std::string y = transposed ? "us" : "";
      // Cell r of the sweep is (lambda index r / kSide, us index r %
      // kSide); the default grid keeps that order, the transposed one
      // puts lambda on x.
      PhaseGrid reference = theory_oracle(spec, transposed);
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
      for (const int threads : {1, 2, 4, 8}) {
        const std::string what = format_name(format) + " threads " +
                                 std::to_string(threads) +
                                 (transposed ? " transposed" : "");
        const PhaseGrid grid =
            ingest(corpus, engine::CsvReader::kBatchBytes, threads, x, y);
        expect_grids_identical(grid, reference, what);
        for (const PhaseCell& c : grid.cells) {
          ASSERT_EQ(c.fluid, Stability::kBorderline) << what;
        }
      }
    }
  }
}

/// `json` with every '-' and '_' inside a string spelled as a \u00xx
/// escape: the same report, whose keys miss the writer-layout fast path
/// and whose verdict and policy cells unescape through the cursor.
std::string escape_strings(const std::string& json) {
  std::string out;
  bool in_string = false;
  for (const char c : json) {
    if (c == '"') in_string = !in_string;
    if (in_string && c == '-') {
      out += "\\u002d";
    } else if (in_string && c == '_') {
      out += "\\u005f";
    } else {
      out += c;
    }
  }
  return out;
}

TEST(BuildPhaseGrid, ArchivesIngestIdenticallyAtEveryThreadCount) {
  // The scenario archive (per-type block) and the policy + fluid archive
  // (trailing sim_backend/policy/fluid_verdict), cut into ~1 KiB batches
  // so each spans several, and the policy archive also as report JSON,
  // plain and with escaped strings. The references are independent of
  // the ingest: axis values in first-appearance order and every cell's
  // closed-form verdict, from the rows decoded by column name; the grid
  // must not move between threads 1 and 2/4/8 or between dialects.
  for (const char* name :
       {"mix_example2_region.csv", "policy_rarest_region.csv"}) {
    SCOPED_TRACE(name);
    const std::string csv = slurp_archive(name);
    ASSERT_FALSE(csv.empty());
    const PhaseGrid reference = ingest(csv, 1024, 1);
    const ReportTable table = read_report(csv);
    for (const auto& [axis, values] :
         {std::pair{&reference.x_axis, &reference.x_values},
          std::pair{&reference.y_axis, &reference.y_values}}) {
      std::vector<double> seen;
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        const double v = engine::ReportRow(table, r).number(*axis);
        if (std::find(seen.begin(), seen.end(), v) == seen.end()) {
          seen.push_back(v);
        }
      }
      EXPECT_EQ(*values, seen) << *axis;
    }
    for (const PhaseCell& cell : reference.cells) {
      const StabilityReport report =
          classify(engine::expand(reference.scenario, cell.params).params);
      EXPECT_EQ(report.verdict, cell.verdict);
      EXPECT_NEAR(report.margin, cell.margin, 1e-9);
    }
    std::vector<std::pair<std::string, std::string>> inputs = {{"csv", csv}};
    if (std::string(name) == "policy_rarest_region.csv") {
      const std::string json = in_format(csv, ReportFormat::kJson);
      inputs.emplace_back("json", json);
      inputs.emplace_back("escaped json", escape_strings(json));
    }
    for (const auto& [dialect, text] : inputs) {
      for (const int threads : {1, 2, 4, 8}) {
        expect_grids_identical(ingest(text, 1024, threads), reference,
                               dialect + " threads " +
                                   std::to_string(threads));
      }
    }
  }
}

TEST(BuildPhaseGridDeath, JsonNullReadsAsNanSoGammaInfCannotIngest) {
  // JSON spells inf as null, which reads back as nan: the mixed-arrival
  // archive's gamma=inf rows carry no positive gamma once rendered as
  // JSON, and the first row says so.
  const std::string json = in_format(slurp_archive("mix_example2_region.csv"),
                                     ReportFormat::kJson);
  EXPECT_DEATH(ingest(json, 1024, 4),
               "gamma must be positive \\(grid report row 0\\)\n");
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
  // The same rows as report JSON (~10 rows per 4 KiB batch).
  const std::string json = in_format(corpus, ReportFormat::kJson);
  EXPECT_DEATH(ingest(json, 4096, 4), "got \"x\" in grid report row 40\n");
  EXPECT_DEATH(ingest(in_format(late_only, ReportFormat::kJson), 4096, 4),
               "unknown verdict \"wobbly\" in grid report row 100\n");
}

/// A theory-only sweep of `spec` as a table whose rows are permuted by a
/// fixed-seed shuffle; the cell index column keeps counting 0..n-1.
ReportTable shuffled_report(const std::string& spec) {
  SweepOptions options;
  options.theory_only = true;
  const ReportTable table =
      read_report(sweep_report(parse_grid(spec), options));
  std::vector<std::size_t> order(table.num_rows());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  Rng rng(20261021);
  for (std::size_t r = order.size(); r > 1; --r) {
    std::swap(order[r - 1], order[rng.uniform_int(std::uint64_t{r})]);
  }
  ReportTable shuffled(table.columns());
  for (std::size_t r = 0; r < order.size(); ++r) {
    std::vector<std::string> row = table.row(order[r]);
    row[0] = std::to_string(r);
    shuffled.add_row(std::move(row));
  }
  return shuffled;
}

TEST(BuildPhaseGrid, ShuffledRowsTileThroughTheValueIndex) {
  // Rows out of slot order fail the pooled row-major check and tile
  // through the value index: each slot holds the cell of its own
  // (x, y), whatever row carried it, at every thread count.
  const std::string spec = "lambda=0.5:3.0:90;us=0.2:1.7:80";
  const PhaseGrid oracle = theory_oracle(spec, /*transposed=*/false);
  const std::string csv = render_table(shuffled_report(spec));
  const auto sorted = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  for (const int threads : {1, 2, 4, 8}) {
    const PhaseGrid grid = ingest(csv, 4096, threads);
    const std::string what = "threads " + std::to_string(threads);
    ASSERT_EQ(grid.x_axis, "us") << what;
    ASSERT_EQ(grid.y_axis, "lambda") << what;
    // First appearance orders the axis values, so they come out
    // shuffled too.
    ASSERT_EQ(sorted(grid.x_values), oracle.x_values) << what;
    ASSERT_EQ(sorted(grid.y_values), oracle.y_values) << what;
    EXPECT_NE(grid.x_values, oracle.x_values) << what;
    for (std::size_t yi = 0; yi < grid.num_y(); ++yi) {
      const std::size_t oy = static_cast<std::size_t>(
          std::find(oracle.y_values.begin(), oracle.y_values.end(),
                    grid.y_values[yi]) -
          oracle.y_values.begin());
      for (std::size_t xi = 0; xi < grid.num_x(); ++xi) {
        const std::size_t ox = static_cast<std::size_t>(
            std::find(oracle.x_values.begin(), oracle.x_values.end(),
                      grid.x_values[xi]) -
            oracle.x_values.begin());
        const PhaseCell& got = grid.at(yi, xi);
        const PhaseCell& want = oracle.at(oy, ox);
        ASSERT_EQ(got.params.us, grid.x_values[xi]) << what;
        ASSERT_EQ(got.params.lambda, grid.y_values[yi]) << what;
        ASSERT_EQ(got.verdict, want.verdict) << what;
        ASSERT_EQ(got.margin, want.margin) << what;
      }
    }
  }
}

TEST(BuildPhaseGridDeath, RepeatedCellAbortsWhereverItSits) {
  // A row that repeats another's (x, y) leaves the rows tiling n slots
  // with one slot twice: in a shuffled corpus, and in an otherwise
  // row-major one whose last row — in the row check's last block —
  // repeats row 0.
  const auto repeat = [](ReportTable table, std::size_t from,
                         std::size_t to) {
    ReportTable out(table.columns());
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      std::vector<std::string> row = table.row(r);
      if (r == to) {
        row[1] = table.row(from)[1];  // lambda
        row[2] = table.row(from)[2];  // us
      }
      out.add_row(std::move(row));
    }
    return render_table(out);
  };
  const ReportTable shuffled =
      shuffled_report("lambda=0.5:3.0:40;us=0.2:1.7:30");
  SweepOptions options;
  options.theory_only = true;
  const ReportTable row_major = read_report(sweep_report(
      parse_grid("lambda=0.5:3.0:150;us=0.2:1.7:120"), options));
  const std::string late = repeat(row_major, 0, row_major.num_rows() - 1);
  for (const int threads : {1, 4}) {
    EXPECT_DEATH(ingest(repeat(shuffled, 7, 500), 4096, threads),
                 "grid report repeats the cell at")
        << "threads " << threads;
    EXPECT_DEATH(
        ingest(late, engine::CsvReader::kBatchBytes, threads),
        "grid report repeats the cell at \\(us = 0.2, lambda = 0.5\\)")
        << "threads " << threads;
  }
}

TEST(BuildPhaseGridDeath, FrontierTableAborts) {
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  expect_ingest_death(read_report(engine::frontier_report(
                          parse_grid("k=1;us=1;lambda=1,9"), options, refine)),
                      "not frontier");
}

TEST(BuildPhaseGridDeath, ThirdVaryingAxisAborts) {
  SweepOptions options;
  options.horizon = 5;
  options.theory_only = true;
  const ReportTable table = read_report(sweep_report(
      parse_grid("k=1;mu=1,2;us=0.6,1.0;lambda=2,6"), options));
  expect_ingest_death(table, "\"mu\" varies", "lambda", "us");
  expect_ingest_death(table, "varies but is neither");
}

/// small_region_report's rows, with `edit` applied to each (by index).
ReportTable edited_small_region(
    const std::function<void(std::size_t, std::vector<std::string>&)>& edit) {
  const ReportTable table = read_report(small_region_report());
  ReportTable out(table.columns());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> row = table.row(r);
    edit(r, row);
    out.add_row(std::move(row));
  }
  return out;
}

TEST(BuildPhaseGridDeath, NonFiniteCoordinateAborts) {
  // A NaN lambda is a corrupt coordinate, not a renderable cell.
  expect_ingest_death(
      edited_small_region([](std::size_t r, std::vector<std::string>& row) {
        if (r == 2) row[1] = "nan";
      }),
      "lambda must be a positive");
}

TEST(BuildPhaseGridDeath, MissingCellAborts) {
  const ReportTable table = read_report(small_region_report());
  ReportTable partial(table.columns());
  for (std::size_t r = 0; r + 1 < table.num_rows(); ++r) {
    partial.add_row(table.row(r));
  }
  expect_ingest_death(partial, "do not tile");
}

TEST(BuildPhaseGridDeath, OutOfOrderCellIndexAborts) {
  const ReportTable table = read_report(small_region_report());
  ReportTable shuffled(table.columns());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    shuffled.add_row(table.row(table.num_rows() - 1 - r));
  }
  expect_ingest_death(shuffled, "0..n-1 in row order");
}

TEST(BuildPhaseGridDeath, DuplicateCoordinateAborts) {
  ReportTable table({"cell", "lambda", "us", "mu", "gamma", "k", "eta",
                     "flash", "mix", "hetero", "verdict", "margin",
                     "critical_piece", "replicas", "sim_final_peers",
                     "sim_mean_peers", "sim_mean_sojourn",
                     "sim_mean_peers_sem", "sim_mean_peers_lo",
                     "sim_mean_peers_hi", "ctmc_mean_peers"});
  const auto row = [&](int cell, const char* lambda, const char* us) {
    table.add_row({std::to_string(cell), lambda, us, "1", "1.25", "1", "1",
                   "0", "0", "0", "transient", "-1", "0", "0", "nan", "nan",
                   "nan", "nan", "nan", "nan", "nan"});
  };
  row(0, "1", "0.5");
  row(1, "2", "0.5");
  row(2, "1", "0.7");
  row(3, "1", "0.7");  // repeats (lambda=1, us=0.7)
  expect_ingest_death(table, "repeats the cell", "lambda", "us");
}

TEST(BuildPhaseGridDeath, ContradictoryPerTypeColumnAborts) {
  // JSON cannot carry gamma=inf (null reads back as nan), so the JSON
  // corpus takes a finite gamma.
  for (const ReportFormat format : kBothFormats) {
    const bool csv = format == ReportFormat::kCsv;
    SweepGrid sweep = parse_grid(
        std::string("k=4;us=1;lambda=1.2,3;mix=0:1:3;gamma=") +
        (csv ? "inf" : "2"));
    SweepOptions options;
    options.horizon = 10;
    options.theory_only = true;
    options.scenario = parse_scenario("example2:3,1");
    const ReportTable table = read_report(sweep_report(sweep, options));
    ReportTable corrupt(table.columns());
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      std::vector<std::string> row = table.row(r);
      if (r == 1) row[11] = "0.42";  // lambda_t1.2 off its mix * lambda share
      corrupt.add_row(std::move(row));
    }
    EXPECT_DEATH(phase_grid_of(corrupt, "", "", format), "contradicts")
        << format_name(format);
  }
}

TEST(BuildPhaseGridDeath, UnknownVerdictAborts) {
  expect_ingest_death(
      edited_small_region([](std::size_t r, std::vector<std::string>& row) {
        if (r == 0) row[10] = "wobbly";
      }),
      "unknown verdict");
}

}  // namespace
}  // namespace p2p::analysis
