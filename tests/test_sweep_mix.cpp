// Typed-arrival-mix scenario layer: named mixes, the mix/hetero sweep
// axes, and the closed-form anchors. Every new sweep mode is checked
// against an *independently implemented* closed form (the Example 2/3
// conditions of Section IV, re-derived here like in
// test_examples_closed_form.cpp) or against the truncated-CTMC
// stationary mean — never against the library's own classifier alone.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/model.hpp"
#include "core/stability.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Independent re-derivations of the Section IV example conditions (same
// hand formulas as test_examples_closed_form.cpp).
Stability example2_closed_form(double l12, double l34) {
  if (l12 < 2 * l34 && l34 < 2 * l12) return Stability::kPositiveRecurrent;
  if (l12 > 2 * l34 || l34 > 2 * l12) return Stability::kTransient;
  return Stability::kBorderline;
}

Stability example3_closed_form(double l1, double l2, double l3, double mu,
                               double gamma) {
  if (gamma <= mu) return Stability::kPositiveRecurrent;
  const double g = gamma == kInf ? 0.0 : mu / gamma;
  const double factor = (2.0 + g) / (1.0 - g);
  const double lhs[3] = {l2 + l3, l1 + l3, l1 + l2};
  const double rhs[3] = {l1 * factor, l2 * factor, l3 * factor};
  bool all_strict = true, any_reversed = false;
  for (int i = 0; i < 3; ++i) {
    all_strict &= lhs[i] < rhs[i];
    any_reversed |= lhs[i] > rhs[i];
  }
  if (all_strict) return Stability::kPositiveRecurrent;
  if (any_reversed) return Stability::kTransient;
  return Stability::kBorderline;
}

TEST(ParseScenario, Example2DefaultsAndWeights) {
  const ScenarioSpec even = parse_scenario("example2");
  EXPECT_EQ(even.name, "example2");
  EXPECT_EQ(even.num_pieces, 4);
  ASSERT_EQ(even.mix.size(), 2u);
  EXPECT_EQ(even.mix[0].type, PieceSet::single(0).with(1));
  EXPECT_EQ(even.mix[1].type, PieceSet::single(2).with(3));
  EXPECT_NEAR(even.mix[0].rate, 0.5, 1e-12);
  EXPECT_NEAR(even.mix[1].rate, 0.5, 1e-12);

  const ScenarioSpec skewed = parse_scenario("example2:3,1");
  EXPECT_NEAR(skewed.mix[0].rate, 0.75, 1e-12);
  EXPECT_NEAR(skewed.mix[1].rate, 0.25, 1e-12);
}

TEST(ParseScenario, Example3AndOneClub) {
  const ScenarioSpec ex3 = parse_scenario("example3:1,2,3");
  EXPECT_EQ(ex3.num_pieces, 3);
  ASSERT_EQ(ex3.mix.size(), 3u);
  EXPECT_EQ(ex3.mix[2].type, PieceSet::single(2));
  EXPECT_NEAR(ex3.mix[0].rate + ex3.mix[1].rate + ex3.mix[2].rate, 1.0,
              1e-12);
  EXPECT_NEAR(ex3.mix[1].rate, 2.0 / 6.0, 1e-12);

  const ScenarioSpec club = parse_scenario("oneclub:4");
  EXPECT_EQ(club.num_pieces, 4);
  ASSERT_EQ(club.mix.size(), 1u);
  EXPECT_EQ(club.mix[0].type, PieceSet::full(4).without(0));
  EXPECT_EQ(club.mix[0].rate, 1.0);
}

TEST(ParseScenarioDeath, MalformedSpecsAbortEchoingTheSpec) {
  EXPECT_DEATH(parse_scenario("bogus"), "got \"bogus\"");
  EXPECT_DEATH(parse_scenario("example2:1"), "exactly two weights");
  EXPECT_DEATH(parse_scenario("example2:1,2,3"),
               "got \"example2:1,2,3\"");
  EXPECT_DEATH(parse_scenario("example3:1,2"), "exactly three weights");
  EXPECT_DEATH(parse_scenario("example2:"), "trailing ':'");
  EXPECT_DEATH(parse_scenario("example2:-1,2"), "nonnegative");
  EXPECT_DEATH(parse_scenario("example2:0,0"),
               "positive sum \\(got \"example2:0,0\"\\)");
  EXPECT_DEATH(parse_scenario("oneclub"), "piece count");
  EXPECT_DEATH(parse_scenario("oneclub:1"), "got \"oneclub:1\"");
  EXPECT_DEATH(parse_scenario("oneclub:2.5"), "got \"oneclub:2.5\"");
}

TEST(Expand, MixZeroReproducesTheHomogeneousCell) {
  // The m = 0 slice must be *the same model object* as the legacy
  // empty-arrival cell: one empty-type stream, no rate classes, so the
  // scenario layer cannot perturb existing sweeps.
  CellParams p;
  p.lambda = 1.5;
  p.us = 1;
  p.mu = 1;
  p.gamma = 1.25;
  p.k = 4;
  const ExpandedCell cell = expand(parse_scenario("example2"), p);
  ASSERT_EQ(cell.params.arrivals().size(), 1u);
  EXPECT_EQ(cell.params.arrivals()[0].type, PieceSet{});
  EXPECT_EQ(cell.params.arrivals()[0].rate, 1.5);
  EXPECT_TRUE(cell.sim.rate_classes.empty());
}

TEST(Expand, InterpolatesCompositionNotVolume) {
  CellParams p;
  p.lambda = 2.0;
  p.us = 0.5;
  p.mu = 1;
  p.gamma = kInf;
  p.k = 4;
  p.mix = 0.25;
  const ExpandedCell cell = expand(parse_scenario("example2:3,1"), p);
  ASSERT_EQ(cell.params.arrivals().size(), 3u);
  EXPECT_NEAR(cell.params.arrival_rate(PieceSet{}), 1.5, 1e-12);
  EXPECT_NEAR(cell.params.arrival_rate(PieceSet::single(0).with(1)),
              2.0 * 0.25 * 0.75, 1e-12);
  EXPECT_NEAR(cell.params.arrival_rate(PieceSet::single(2).with(3)),
              2.0 * 0.25 * 0.25, 1e-12);
  // The mix axis moves the composition of the load, never its volume.
  EXPECT_NEAR(cell.params.total_arrival_rate(), 2.0, 1e-12);
}

TEST(Expand, HeteroSpreadIsMeanPreserving) {
  CellParams p;
  p.lambda = 1;
  p.us = 1;
  p.mu = 1;
  p.gamma = 1.25;
  p.k = 3;
  p.hetero = 0.6;
  ScenarioSpec scenario = parse_scenario("example3");
  scenario.slow_weight = 2;
  scenario.fast_weight = 1;
  const ExpandedCell cell = expand(scenario, p);
  ASSERT_EQ(cell.sim.rate_classes.size(), 2u);
  const auto& slow = cell.sim.rate_classes[0];
  const auto& fast = cell.sim.rate_classes[1];
  EXPECT_NEAR(slow.multiplier, 0.4, 1e-12);
  EXPECT_NEAR(fast.multiplier, 1.0 + 0.6 * 2.0, 1e-12);
  EXPECT_NEAR((slow.weight * slow.multiplier + fast.weight * fast.multiplier) /
                  (slow.weight + fast.weight),
              1.0, 1e-12);
}

TEST(ExpandDeath, InvalidCellsAbort) {
  CellParams p;
  p.lambda = 1;
  p.us = 1;
  p.mu = 1;
  p.gamma = 1.25;
  p.k = 3;
  p.mix = 0.5;
  EXPECT_DEATH(expand(ScenarioSpec{}, p), "named scenario");
  EXPECT_DEATH(expand(parse_scenario("example2"), p),
               "scenario's piece count");
  p.k = 4;
  p.mix = 1.5;
  EXPECT_DEATH(expand(parse_scenario("example2"), p), "mix must lie");
}

TEST(RunSweepMix, Example2CellsMatchTheIndependentClosedForm) {
  // Full-mix Example 2 cells (us = 0, gamma = inf, K = 4): each cell's
  // Theorem-1 verdict must equal the hand-derived paired-halves
  // condition at the per-type rates the mix produces.
  SweepGrid grid = parse_grid(
      "k=4;us=0;gamma=inf;mix=1;flash=0;eta=1;hetero=0;"
      "lambda=0.4,1,2.5;mu=0.5,1,2");
  SweepOptions options;
  options.horizon = 10;
  options.scenario = parse_scenario("example2:3,1");
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 9u);
  for (const auto& cell : cells) {
    const double l12 = cell.lambda * 0.75;
    const double l34 = cell.lambda * 0.25;
    EXPECT_EQ(cell.theory.verdict, example2_closed_form(l12, l34))
        << "lambda=" << cell.lambda << " mu=" << cell.mu;
    // 3:1 skew means l12 > 2*l34 at every lambda: Example 2's signature
    // transience despite every arrival donating half the file.
    EXPECT_EQ(cell.theory.verdict, Stability::kTransient);
  }
  // The even mix at the same cells is strictly inside the cone: stable.
  SweepOptions even = options;
  even.scenario = parse_scenario("example2:1,1");
  for (const auto& cell : sweep_cells(grid, even)) {
    EXPECT_EQ(cell.theory.verdict, Stability::kPositiveRecurrent);
  }
}

TEST(RunSweepMix, Example3CellsMatchTheIndependentClosedForm) {
  SweepGrid grid = parse_grid(
      "k=3;us=0;mix=1;flash=0;eta=1;hetero=0;"
      "lambda=0.6,1.5,3;mu=1;gamma=1.5,4,inf");
  SweepOptions options;
  options.horizon = 10;
  options.scenario = parse_scenario("example3:1,2,3");
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 9u);
  int transient_seen = 0;
  for (const auto& cell : cells) {
    const double l1 = cell.lambda * 1.0 / 6.0;
    const double l2 = cell.lambda * 2.0 / 6.0;
    const double l3 = cell.lambda * 3.0 / 6.0;
    EXPECT_EQ(cell.theory.verdict,
              example3_closed_form(l1, l2, l3, cell.mu, cell.gamma))
        << "lambda=" << cell.lambda << " gamma=" << cell.gamma;
    transient_seen += cell.theory.verdict == Stability::kTransient;
  }
  // The 1:2:3 skew crosses the Example-3 boundary somewhere in this
  // grid; a vacuously all-stable anchor would prove nothing.
  EXPECT_GT(transient_seen, 0);
}

TEST(RunSweepMix, PartialMixMatchesManuallyBuiltModel) {
  // Intermediate mix values: the cell's verdict and margin must equal
  // classify() on a SwarmParams assembled by hand from the interpolation
  // formula — anchoring expand() itself, not just its endpoints.
  SweepGrid grid = parse_grid(
      "k=4;us=1;mu=1;gamma=1.25;mix=0.3;flash=0;eta=1;hetero=0;lambda=3");
  SweepOptions options;
  options.horizon = 10;
  options.scenario = parse_scenario("example2:1,3");
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 1u);
  // Same interpolation expressions as the engine ((1 - m) * lambda is
  // not the double 0.7 * lambda), so the margins compare bit-exact.
  const SwarmParams manual(
      4, 1.0, 1.0, 1.25,
      {{PieceSet{}, (1.0 - 0.3) * 3.0},
       {PieceSet::single(0).with(1), 0.3 * 3.0 * 0.25},
       {PieceSet::single(2).with(3), 0.3 * 3.0 * 0.75}});
  const StabilityReport expected = classify(manual);
  EXPECT_EQ(cells[0].theory.verdict, expected.verdict);
  EXPECT_EQ(cells[0].theory.margin, expected.margin);
  EXPECT_EQ(cells[0].theory.critical_piece, expected.critical_piece);
}

TEST(RunSweepMix, ReplicaCiCoversCtmcStationaryMeanForK3Mix) {
  // A lightly loaded stable Example-3 mixed cell where the truncated
  // K = 3 chain is effectively exact: the replica-mean CI over warmed-up
  // time averages must cover the typed chain's stationary E[N].
  SweepGrid grid = parse_grid(
      "k=3;us=0.8;mu=1;gamma=2;mix=0.5;flash=0;eta=1;hetero=0;lambda=0.4");
  SweepOptions options;
  options.horizon = 400;
  options.warmup = 80;
  options.replicas = 16;
  options.ctmc_max_peers = 8;
  options.scenario = parse_scenario("example3");
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  const CellResult& cell = cells[0];
  ASSERT_TRUE(std::isfinite(cell.ctmc_mean_peers));
  EXPECT_GT(cell.ctmc_mean_peers, 0.0);
  EXPECT_LE(cell.sim.mean_peers_lo, cell.ctmc_mean_peers);
  EXPECT_GE(cell.sim.mean_peers_hi, cell.ctmc_mean_peers);
  EXPECT_LT(cell.sim.mean_peers_hi - cell.sim.mean_peers_lo,
            std::max(1.0, cell.ctmc_mean_peers));
}

TEST(RunSweepMix, CtmcSkipsCellsWhoseLawTheChainDoesNotModel) {
  // The truncated chain is the homogeneous-law answer: a retry boost or
  // a rate spread changes the simulator's law, so those cells must stay
  // NaN instead of posing as exact cross-checks. (K = 3 itself is now
  // within the ctmc gate.)
  SweepGrid grid = parse_grid(
      "k=3;us=1;mu=1;gamma=1.25;lambda=0.5;flash=0;mix=0;"
      "eta=1,4;hetero=0,0.5");
  SweepOptions options;
  options.horizon = 20;
  options.ctmc_max_peers = 6;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) {
    const bool homogeneous = cell.eta == 1 && cell.hetero == 0;
    EXPECT_EQ(std::isfinite(cell.ctmc_mean_peers), homogeneous)
        << "eta=" << cell.eta << " hetero=" << cell.hetero;
  }
}

TEST(RunSweepMix, HeteroLeavesTheoryFixedButChangesSim) {
  // Theorem 1 is homogeneous in the upload rate; the mean-preserving
  // spread must leave every theory column untouched while the simulated
  // trajectories differ.
  SweepGrid grid = parse_grid("lambda=2;us=1;k=3;hetero=0,0.8");
  SweepOptions options;
  options.horizon = 60;
  const std::vector<CellResult> cells = sweep_cells(grid, options);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].theory.verdict, cells[1].theory.verdict);
  EXPECT_EQ(cells[0].theory.margin, cells[1].theory.margin);
  EXPECT_NE(cells[0].sim.mean_peers_mean, cells[1].sim.mean_peers_mean);
}

TEST(RefineMix, LocalizesTheExample2VerdictFlipClosedForm) {
  // K = 4, Us = 1, mu = 1, gamma = inf, lambda = 2, example2:3,1
  // (f34 = 1/4): transient iff lambda > Us / (1 - 3 m f34), so the flip
  // sits at m* = (1 - Us/lambda) / (3 f34) = 2/3 exactly.
  SweepGrid grid =
      parse_grid("k=4;us=1;mu=1;gamma=inf;lambda=2;mix=0:1:5");
  SweepOptions options;
  options.horizon = 30;
  options.scenario = parse_scenario("example2:3,1");
  RefineOptions refine;
  refine.axis = "mix";
  refine.tol = 1e-4;
  const std::vector<FrontierPoint> points =
      frontier_points(grid, options, refine);
  ASSERT_EQ(points.size(), 1u);
  const FrontierPoint& pt = points[0];
  ASSERT_TRUE(pt.bracketed);
  EXPECT_NEAR(pt.value, 2.0 / 3.0, refine.tol);
  EXPECT_EQ(pt.params.mix, pt.value);  // refined slot holds the estimate
  EXPECT_NEAR(pt.margin, 0.0, 0.01);
  EXPECT_TRUE(std::isfinite(pt.sim.mean_peers_mean));
}

TEST(RefineMix, OneClubMixFrontierStaysAtTheEmptyArrivalBoundary) {
  // The one-club stream contains no copy of piece 0, so piece 0's
  // threshold — and with it the critical lambda — is *identical* to the
  // empty-arrival slice no matter how large m gets: arrivals donating
  // K - 1 of K pieces buy nothing. Refining along lambda at m = 0 and
  // m = 1 must localize the same frontier, lambda* = Us/(1 - mu/gamma).
  SweepOptions options;
  options.horizon = 20;
  options.scenario = parse_scenario("oneclub:3");
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-4;
  const SweepGrid at0 =
      parse_grid("k=3;us=1;mu=1;gamma=1.25;mix=0;lambda=1:9:5");
  const SweepGrid at1 =
      parse_grid("k=3;us=1;mu=1;gamma=1.25;mix=1;lambda=1:9:5");
  const FrontierPoint p0 = frontier_points(at0, options, refine).at(0);
  const FrontierPoint p1 = frontier_points(at1, options, refine).at(0);
  ASSERT_TRUE(p0.bracketed);
  ASSERT_TRUE(p1.bracketed);
  EXPECT_NEAR(p0.value, 5.0, refine.tol);  // Us/(1-mu/gamma)
  EXPECT_NEAR(p1.value, 5.0, refine.tol);
}

TEST(RunSweepMix, ByteIdenticalAcrossThreadCounts) {
  SweepGrid grid = parse_grid(
      "k=4;us=1;gamma=inf;mix=0:1:3;hetero=0,0.5;lambda=1,2");
  SweepOptions one;
  one.horizon = 30;
  one.replicas = 4;
  one.threads = 1;
  one.scenario = parse_scenario("example2:3,1");
  SweepOptions four = one;
  four.threads = 4;
  const std::string csv1 = sweep_report(grid, one);
  const std::string csv4 = sweep_report(grid, four);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
}

TEST(RefineMix, ByteIdenticalAcrossThreadCounts) {
  SweepGrid grid = parse_grid(
      "k=4;us=0.5,1,1.5;mu=1;gamma=inf;lambda=2;mix=0:1:5");
  SweepOptions one;
  one.horizon = 25;
  one.replicas = 3;
  one.threads = 1;
  one.scenario = parse_scenario("example2:3,1");
  SweepOptions four = one;
  four.threads = 4;
  RefineOptions refine;
  refine.axis = "mix";
  refine.tol = 1e-3;
  const std::string csv1 = frontier_report(grid, one, refine);
  const std::string csv4 = frontier_report(grid, four, refine);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
}

TEST(RunSweepMixDeath, InvalidAxesAbort) {
  SweepOptions options;
  options.horizon = 5;
  // Nonzero mix without a scenario.
  EXPECT_DEATH(sweep_report(parse_grid("lambda=1;us=1;k=3;mix=0.5"), options),
               "named scenario");
  // Mix outside [0, 1].
  options.scenario = parse_scenario("oneclub:3");
  EXPECT_DEATH(sweep_report(parse_grid("lambda=1;us=1;k=3;mix=1.5"), options),
               "mix must lie");
  // Hetero outside [0, 1).
  EXPECT_DEATH(sweep_report(parse_grid("lambda=1;us=1;k=3;hetero=1"), options),
               "hetero must lie");
  // k axis disagreeing with the scenario's piece count.
  EXPECT_DEATH(sweep_report(parse_grid("lambda=1;us=1;k=4;mix=1"), options),
               "scenario's piece count");
}

}  // namespace
}  // namespace p2p::engine
