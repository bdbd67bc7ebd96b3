#include "engine/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/model.hpp"
#include "rand/rng.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

TEST(ParseAxis, Linspace) {
  const Axis axis = parse_axis("lambda=0.5:3.0:16");
  EXPECT_EQ(axis.name, "lambda");
  ASSERT_EQ(axis.values.size(), 16u);
  EXPECT_NEAR(axis.values.front(), 0.5, 1e-12);
  EXPECT_NEAR(axis.values.back(), 3.0, 1e-12);
  EXPECT_NEAR(axis.values[1] - axis.values[0], 2.5 / 15.0, 1e-12);
}

TEST(ParseAxis, SinglePointLinspaceUsesLowerEndpoint) {
  const Axis axis = parse_axis("mu=2.0:9.0:1");
  ASSERT_EQ(axis.values.size(), 1u);
  EXPECT_NEAR(axis.values[0], 2.0, 1e-12);
}

TEST(ParseAxis, SingleValueAndList) {
  EXPECT_EQ(parse_axis("k=3").values, std::vector<double>({3.0}));
  EXPECT_EQ(parse_axis("gamma=0.7,1.5,3").values,
            std::vector<double>({0.7, 1.5, 3.0}));
}

TEST(ParseAxis, InfIsAccepted) {
  const Axis axis = parse_axis("gamma=1.25,inf");
  ASSERT_EQ(axis.values.size(), 2u);
  EXPECT_EQ(axis.values[1], kInfiniteRate);
}

TEST(ParseAxisDeath, MalformedSpecsAbort) {
  EXPECT_DEATH(parse_axis("lambda"), "axis spec");
  EXPECT_DEATH(parse_axis("=1"), "axis spec");
  EXPECT_DEATH(parse_axis("lambda="), "axis spec");
  EXPECT_DEATH(parse_axis("lambda=a,b"), "numbers");
  EXPECT_DEATH(parse_axis("lambda=1:2:0"), "positive integer");
  EXPECT_DEATH(parse_axis("lambda=1:2:3:4"), "lo:hi:count");
}

TEST(ParseAxisDeath, MessagesEchoTheOffendingSpecVerbatim) {
  // A sweep command often carries half a dozen ';'-separated axes; the
  // abort must name the one that is malformed, not make the user diff
  // specs by hand.
  EXPECT_DEATH(parse_axis("lambda"), "got \"lambda\"");
  EXPECT_DEATH(parse_axis("lambda=a,b"), "got \"lambda=a,b\"");
  EXPECT_DEATH(parse_axis("lambda=1:2:0"), "got \"lambda=1:2:0\"");
  EXPECT_DEATH(parse_axis("us=1:2:3:4"), "got \"us=1:2:3:4\"");
  EXPECT_DEATH(parse_axis("gamma=inf:2:3"), "got \"gamma=inf:2:3\"");
  EXPECT_DEATH(parse_refine("lambda:zero"), "got \"lambda:zero\"");
  EXPECT_DEATH(parse_refine("lambda:-1"), "got \"lambda:-1\"");
}

TEST(ParseAxisDeath, StrtodLeniencyHolesStayClosed) {
  // strtod's grammar is looser than the spec grammar: it accepts "nan",
  // any-case "inf"/"infinity", hex floats, and leading whitespace. Only
  // the literal "inf" spelling is a valid axis value (and only on gamma,
  // checked downstream); every other strtod-ism must abort echoing the
  // offending spec — even on the axis where infinity is legal.
  EXPECT_DEATH(parse_axis("gamma=nan"), "got \"gamma=nan\"");
  EXPECT_DEATH(parse_axis("gamma=NaN"), "got \"gamma=NaN\"");
  EXPECT_DEATH(parse_axis("gamma=infinity"), "got \"gamma=infinity\"");
  EXPECT_DEATH(parse_axis("gamma=INF"), "got \"gamma=INF\"");
  EXPECT_DEATH(parse_axis("gamma=Inf"), "got \"gamma=Inf\"");
  EXPECT_DEATH(parse_axis("gamma=-inf"), "got \"gamma=-inf\"");
  EXPECT_DEATH(parse_axis("gamma=0x1p3"), "got \"gamma=0x1p3\"");
  EXPECT_DEATH(parse_axis("gamma=0X2"), "got \"gamma=0X2\"");
  EXPECT_DEATH(parse_axis("gamma= 2"), "got \"gamma= 2\"");
  // A decimal overflowing to infinity is an infinity the user did not
  // spell; it must not sneak past the finite check either.
  EXPECT_DEATH(parse_axis("gamma=1e999"), "got \"gamma=1e999\"");
  // Plain decimals (including exponents) still parse.
  EXPECT_EQ(parse_axis("gamma=1e-3").values, std::vector<double>({1e-3}));
  EXPECT_EQ(parse_axis("lambda=-2.5").values, std::vector<double>({-2.5}));
}

TEST(SweepGrid, CartesianExpansionLastAxisFastest) {
  SweepGrid grid = parse_grid("us=1,2;lambda=10,20,30");
  ASSERT_EQ(grid.num_cells(), 6u);
  EXPECT_EQ(grid.cell_values(0), std::vector<double>({1, 10}));
  EXPECT_EQ(grid.cell_values(1), std::vector<double>({1, 20}));
  EXPECT_EQ(grid.cell_values(2), std::vector<double>({1, 30}));
  EXPECT_EQ(grid.cell_values(3), std::vector<double>({2, 10}));
  EXPECT_EQ(grid.cell_values(5), std::vector<double>({2, 30}));
}

TEST(SweepGrid, SetAxisReplacesByName) {
  SweepGrid grid = default_region_grid();
  EXPECT_EQ(grid.num_cells(), 256u);  // the Theorem-1 region sweep
  grid.set_axis(parse_axis("lambda=1"));
  EXPECT_EQ(grid.num_cells(), 16u);
  ASSERT_NE(grid.find_axis("lambda"), nullptr);
  EXPECT_EQ(grid.find_axis("lambda")->values.size(), 1u);
  EXPECT_EQ(grid.find_axis("nope"), nullptr);
}

TEST(SweepGrid, SetAxisReplaceKeepsPositionAppendGoesLast) {
  // Replace-vs-append semantics: replacing an axis must keep its slot
  // (cell enumeration order depends on axis order), appending must grow
  // the axis list at the end.
  SweepGrid grid = parse_grid("us=1,2;lambda=10,20");
  ASSERT_EQ(grid.axes.size(), 2u);
  grid.set_axis(parse_axis("us=7,8,9"));
  ASSERT_EQ(grid.axes.size(), 2u);
  EXPECT_EQ(grid.axes[0].name, "us");  // still first
  EXPECT_EQ(grid.axes[0].values, std::vector<double>({7, 8, 9}));
  EXPECT_EQ(grid.axes[1].name, "lambda");
  grid.set_axis(parse_axis("mu=3"));
  ASSERT_EQ(grid.axes.size(), 3u);
  EXPECT_EQ(grid.axes[2].name, "mu");  // appended last
  EXPECT_EQ(grid.num_cells(), 6u);
  // After a replace, cell enumeration still runs the last axis fastest.
  EXPECT_EQ(grid.cell_values(1), std::vector<double>({7, 20, 3}));
  EXPECT_EQ(grid.cell_values(2), std::vector<double>({8, 10, 3}));
}

TEST(SweepGrid, CellValuesRoundTripOverRandomAxisSets) {
  // Property: cell_values is the row-major (last axis fastest) digit
  // expansion of the index — re-encoding the returned values must give
  // back the index, for every cell of randomized grids.
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    SweepGrid grid;
    const int num_axes = 1 + static_cast<int>(rng.uniform_int(4ULL));
    for (int a = 0; a < num_axes; ++a) {
      Axis axis;
      axis.name = "axis" + std::to_string(a);
      const int size = 1 + static_cast<int>(rng.uniform_int(4ULL));
      for (int v = 0; v < size; ++v) {
        axis.values.push_back(static_cast<double>(a * 100 + v));
      }
      grid.axes.push_back(std::move(axis));
    }
    std::size_t expected_cells = 1;
    for (const auto& axis : grid.axes) expected_cells *= axis.values.size();
    ASSERT_EQ(grid.num_cells(), expected_cells);
    for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
      const std::vector<double> values = grid.cell_values(cell);
      ASSERT_EQ(values.size(), grid.axes.size());
      std::size_t reencoded = 0;
      for (std::size_t a = 0; a < grid.axes.size(); ++a) {
        const auto& axis_values = grid.axes[a].values;
        std::size_t digit = axis_values.size();
        for (std::size_t i = 0; i < axis_values.size(); ++i) {
          if (axis_values[i] == values[a]) {
            digit = i;
            break;
          }
        }
        ASSERT_LT(digit, axis_values.size()) << "value not on its axis";
        reencoded = reencoded * axis_values.size() + digit;
      }
      ASSERT_EQ(reencoded, cell);
    }
  }
}

TEST(SweepGrid, EmptyGridHasNoCells) {
  const SweepGrid grid;
  EXPECT_EQ(grid.num_cells(), 0u);
}

TEST(RunSweep, TheoremOneVerdictsOnKnownCells) {
  // K = 1, Us = 1, mu = 1, gamma = 1.25: critical lambda is
  // Us / (1 - mu/gamma) = 5. lambda = 1 is stable, lambda = 9 transient.
  SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,9");
  SweepOptions options;
  options.horizon = 60;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].theory.verdict, Stability::kPositiveRecurrent);
  EXPECT_EQ(cells[1].theory.verdict, Stability::kTransient);
  // The transient cell piles up peers; the stable one stays modest.
  EXPECT_GT(cells[1].sim.final_peers_mean, 4 * cells[0].sim.final_peers_mean);
}

TEST(RunSweep, ByteIdenticalAcrossThreadCounts) {
  SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.5,1.5;k=2");
  SweepOptions one;
  one.horizon = 40;
  one.threads = 1;
  SweepOptions four = one;
  four.threads = 4;
  const std::string csv1 = sweep_report(grid, one);
  const std::string csv4 = sweep_report(grid, four);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
}

TEST(RunSweep, SeedChangesSimButNotTheory) {
  SweepGrid grid = parse_grid("lambda=2;us=0.5;k=2");
  SweepOptions a;
  a.horizon = 80;
  a.base_seed = 1;
  SweepOptions b = a;
  b.base_seed = 2;
  const CellResult ca = sweep_cells(grid, a)[0];
  const CellResult cb = sweep_cells(grid, b)[0];
  EXPECT_EQ(ca.theory.verdict, cb.theory.verdict);
  EXPECT_NE(ca.sim.mean_peers_mean, cb.sim.mean_peers_mean);
}

TEST(RunSweep, CtmcColumnGatedByPieceCount) {
  // The gate now admits K = 3 (the typed-mix examples live there); K = 4
  // would need ~C(cap + 16, 16) states and stays out.
  SweepGrid grid = parse_grid("lambda=1;us=1;k=3,4;gamma=1.25");
  SweepOptions options;
  options.horizon = 20;
  options.ctmc_max_peers = 6;
  const ReportTable table = read_report(sweep_report(grid, options));
  const std::vector<CellResult> cells = decode_cells(table);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(std::isfinite(cells[0].ctmc_mean_peers));  // K = 3
  EXPECT_GT(cells[0].ctmc_mean_peers, 0.0);
  EXPECT_TRUE(std::isnan(cells[1].ctmc_mean_peers));  // K = 4
  // A skipped solve must read as "nan" in the table, never as 0 — the
  // column is documented "NaN unless the CTMC solve ran". It sits just
  // before the trailing sim_backend column.
  EXPECT_EQ(table.row(1)[table.num_columns() - 2], "nan");
}

TEST(RunSweep, CtmcColumnGatedByStateBudget) {
  // A cap that is cheap at K = 1 (~2e3 states) is ~7e9 states at K = 3;
  // the budget guard must skip the intractable solve (NaN, like the K
  // gate) instead of hanging the sweep. This test completing at all is
  // the point — an unguarded K = 3 / cap = 60 solve would OOM.
  SweepGrid grid = parse_grid("lambda=1;us=1;k=1,3;gamma=1.25");
  SweepOptions options;
  options.horizon = 5;
  options.ctmc_max_peers = 60;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(std::isfinite(cells[0].ctmc_mean_peers));  // K = 1
  EXPECT_TRUE(std::isnan(cells[1].ctmc_mean_peers));     // K = 3
}

TEST(CellResult, CtmcDefaultsToNaNNotZero) {
  // A default-constructed cell must not claim "exact E[N] = 0": the field
  // previously default-initialized to 0, which is a valid-looking answer.
  const CellResult cell;
  EXPECT_TRUE(std::isnan(cell.ctmc_mean_peers));
  EXPECT_TRUE(std::isnan(cell.sim.mean_peers_sem));
}

TEST(RunSweep, TableSchemaIsStable) {
  SweepGrid grid = parse_grid("lambda=1;us=1;k=1");
  SweepOptions options;
  options.horizon = 10;
  const ReportTable table = read_report(sweep_report(grid, options));
  ASSERT_EQ(table.num_columns(), 22u);
  EXPECT_EQ(table.columns().front(), "cell");
  EXPECT_EQ(table.columns()[8], "mix");
  EXPECT_EQ(table.columns()[9], "hetero");
  EXPECT_EQ(table.columns()[20], "ctmc_mean_peers");
  EXPECT_EQ(table.columns().back(), "sim_backend");
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(RunSweep, SingleReplicaEmitsNaNUncertainty) {
  SweepGrid grid = parse_grid("lambda=1;us=1;k=1");
  SweepOptions options;
  options.horizon = 20;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 1u);
  const SimAggregate& sim = cells[0].sim;
  EXPECT_EQ(sim.replicas, 1);
  EXPECT_TRUE(std::isfinite(sim.mean_peers_mean));
  EXPECT_TRUE(std::isnan(sim.mean_peers_sem));
  EXPECT_TRUE(std::isnan(sim.mean_peers_lo));
  EXPECT_TRUE(std::isnan(sim.mean_peers_hi));
}

TEST(RunSweep, ReplicaAggregatesAreOrderedAndFinite) {
  SweepGrid grid = parse_grid("lambda=2;us=1;k=1");
  SweepOptions options;
  options.horizon = 60;
  options.replicas = 6;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  const SimAggregate& sim = cells[0].sim;
  EXPECT_EQ(sim.replicas, 6);
  EXPECT_GT(sim.mean_peers_sem, 0.0);
  EXPECT_LE(sim.mean_peers_lo, sim.mean_peers_mean);
  EXPECT_LE(sim.mean_peers_mean, sim.mean_peers_hi);
  EXPECT_LT(sim.mean_peers_lo, sim.mean_peers_hi);
}

TEST(RunSweep, ReplicaModeByteIdenticalAcrossThreadCounts) {
  SweepGrid grid = parse_grid("lambda=1,2;us=0.5,1.5;k=2");
  SweepOptions one;
  one.horizon = 30;
  one.replicas = 5;
  one.threads = 1;
  SweepOptions four = one;
  four.threads = 4;
  const std::string csv1 = sweep_report(grid, one);
  const std::string csv4 = sweep_report(grid, four);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
}

TEST(RunSweep, ReplicaCiCoversExactStationaryMean) {
  // Acceptance check: a stable K = 1 cell where the truncated chain is
  // effectively exact (cap far above the typical population). The
  // replica-mean CI over warmed-up time averages must cover E[N].
  SweepGrid grid = parse_grid("lambda=1;us=1;mu=1;gamma=1.25;k=1");
  SweepOptions options;
  options.horizon = 400;
  options.warmup = 80;
  options.replicas = 16;
  options.ctmc_max_peers = 60;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  const CellResult& cell = cells[0];
  ASSERT_TRUE(std::isfinite(cell.ctmc_mean_peers));
  EXPECT_LE(cell.sim.mean_peers_lo, cell.ctmc_mean_peers);
  EXPECT_GE(cell.sim.mean_peers_hi, cell.ctmc_mean_peers);
  // The CI should also be meaningfully tight, not a vacuous cover.
  EXPECT_LT(cell.sim.mean_peers_hi - cell.sim.mean_peers_lo,
            cell.ctmc_mean_peers);
}

TEST(RunSweep, WarmupRemovesEmptyStartBias) {
  // For a stable system started empty, the raw [0, T] time average sits
  // below the warmed [warmup, T] one (the transient drags it down).
  SweepGrid grid = parse_grid("lambda=2;us=1;mu=1;gamma=1.25;k=1");
  SweepOptions cold;
  cold.horizon = 200;
  cold.replicas = 8;
  SweepOptions warm = cold;
  warm.warmup = 50;
  const double cold_mean = sweep_cells(grid, cold)[0].sim.mean_peers_mean;
  const double warm_mean = sweep_cells(grid, warm)[0].sim.mean_peers_mean;
  EXPECT_GT(warm_mean, cold_mean);
}

TEST(RunSweep, CollapsedMeasurementWindowYieldsNaNNotZero) {
  // run_until steps whole events, so with a near-zero event rate the
  // warmup run overshoots past the horizon and the measurement window
  // collapses. The replica must report NaN (no information), never a
  // fabricated population of 0.
  SweepGrid grid = parse_grid("lambda=1e-9;us=0;mu=1;gamma=1.25;k=1");
  SweepOptions options;
  options.horizon = 1;
  options.warmup = 0.5;
  options.replicas = 3;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  const SimAggregate& sim = cells[0].sim;
  EXPECT_EQ(sim.replicas, 3);
  EXPECT_TRUE(std::isnan(sim.mean_peers_mean));
  EXPECT_TRUE(std::isnan(sim.mean_peers_sem));
}

TEST(RunSweep, FlashAxisInjectsOneClubCrowd) {
  // A one-club flash crowd in a transient cell persists; final population
  // must dominate the flashless run. The theory verdict ignores flash.
  SweepGrid grid = parse_grid("lambda=2;us=0.2;mu=1;gamma=1.25;k=2;"
                              "flash=0,200");
  SweepOptions options;
  options.horizon = 30;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].flash, 0);
  EXPECT_EQ(cells[1].flash, 200);
  EXPECT_EQ(cells[0].theory.verdict, cells[1].theory.verdict);
  EXPECT_GT(cells[1].sim.final_peers_mean, cells[0].sim.final_peers_mean + 100);
}

TEST(RunSweep, EtaAxisLeavesTheoryFixedButChangesSim) {
  // Section VIII-C: faster retry does not move the stability region, so
  // the Theorem-1 columns must be identical along the eta axis while the
  // simulated trajectories differ.
  SweepGrid grid = parse_grid("lambda=2;us=0.5;mu=1;gamma=1.25;k=2;"
                              "eta=1,8");
  SweepOptions options;
  options.horizon = 60;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].theory.verdict, cells[1].theory.verdict);
  EXPECT_EQ(cells[0].theory.margin, cells[1].theory.margin);
  EXPECT_NE(cells[0].sim.mean_peers_mean, cells[1].sim.mean_peers_mean);
}

TEST(RunSweep, MissingAxesFallBackToDefaultRegionGrid) {
  // Only k given: the other axes come from default_region_grid, so the
  // effective grid is the 256-cell region sweep at K = 1 — its 16 x 16
  // lambda x us values, last axis fastest.
  SweepGrid grid = parse_grid("k=1");
  SweepOptions options;
  options.horizon = 5;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 256u);
  const SweepGrid region = default_region_grid();
  const std::vector<double>& lambdas = region.find_axis("lambda")->values;
  const std::vector<double>& us = region.find_axis("us")->values;
  ASSERT_EQ(lambdas.size(), 16u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].lambda, lambdas[i / 16]) << "cell " << i;
    EXPECT_EQ(cells[i].us, us[i % 16]) << "cell " << i;
    EXPECT_EQ(cells[i].k, 1) << "cell " << i;
  }
}

TEST(RunSweepDeath, UnknownAxisAborts) {
  SweepGrid grid = parse_grid("bogus=1;lambda=1");
  EXPECT_DEATH(sweep_report(grid, SweepOptions{}), "unknown sweep axis");
}

TEST(RunSweepDeath, InfOnNonGammaAxisAborts) {
  // An infinite lambda/us/mu makes the total event rate infinite and
  // the simulation would spin forever; only gamma may be inf.
  SweepGrid grid = parse_grid("lambda=inf;us=1;k=1");
  EXPECT_DEATH(sweep_report(grid, SweepOptions{}), "only the gamma axis");
}

TEST(RunSweepDeath, EtaBelowOneAborts) {
  SweepGrid grid = parse_grid("lambda=1;us=1;k=1;eta=0.5");
  EXPECT_DEATH(sweep_report(grid, SweepOptions{}), "eta must be >= 1");
}

TEST(RunSweepDeath, FractionalOrNegativeFlashAborts) {
  SweepOptions options;
  options.horizon = 5;
  EXPECT_DEATH(
      sweep_report(parse_grid("lambda=1;us=1;k=1;flash=0.5"), options),
      "nonnegative integer");
  EXPECT_DEATH(
      sweep_report(parse_grid("lambda=1;us=1;k=1;flash=-2"), options),
      "nonnegative integer");
}

TEST(RunSweepDeath, InvalidReplicaOptionsAbort) {
  const SweepGrid grid = parse_grid("lambda=1;us=1;k=1");
  SweepOptions options;
  options.replicas = 0;
  EXPECT_DEATH(sweep_report(grid, options), "replicas");
  options.replicas = 1;
  options.warmup = options.horizon;
  EXPECT_DEATH(sweep_report(grid, options), "warmup");
  options.warmup = 0;
  options.confidence = 1.0;
  EXPECT_DEATH(sweep_report(grid, options), "confidence");
  options.confidence = 0.95;
  options.threads = 0;
  EXPECT_DEATH(sweep_report(grid, options), "threads");
}

}  // namespace
}  // namespace p2p::engine
