// Theorem-1 boundary refinement: bisection toward the verdict flip.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

TEST(ParseRefine, AxisAndTolerance) {
  const RefineOptions refine = parse_refine("lambda:0.01");
  EXPECT_EQ(refine.axis, "lambda");
  EXPECT_NEAR(refine.tol, 0.01, 1e-15);
}

TEST(ParseRefineDeath, MalformedSpecsAbort) {
  EXPECT_DEATH(parse_refine("lambda"), "axis:tol");
  EXPECT_DEATH(parse_refine(":0.1"), "axis:tol");
  EXPECT_DEATH(parse_refine("lambda:"), "axis:tol");
  EXPECT_DEATH(parse_refine("lambda:0"), "positive");
  EXPECT_DEATH(parse_refine("lambda:-1"), "positive");
  EXPECT_DEATH(parse_refine("lambda:inf"), "positive and finite");
}

TEST(RefineFrontier, LocalizesKnownCriticalLambda) {
  // K = 1, Us = 1, mu = 1, gamma = 1.25: the Theorem-1 boundary is
  // lambda* = Us / (1 - mu/gamma) = 5 exactly. The coarse grid brackets
  // it in (4, 6); bisection must localize it to within tol.
  SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,4,6,9");
  SweepOptions options;
  options.horizon = 40;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-3;
  const std::vector<FrontierPoint> points =
      frontier_points(grid, options, refine);
  ASSERT_EQ(points.size(), 1u);
  const FrontierPoint& pt = points[0];
  ASSERT_TRUE(pt.bracketed);
  EXPECT_LE(pt.value_hi - pt.value_lo, refine.tol * (1 + 1e-12));
  EXPECT_NEAR(pt.value, 5.0, refine.tol);
  EXPECT_EQ(pt.params.lambda, pt.value);  // refined slot holds the estimate
  EXPECT_NEAR(pt.margin, 0.0, 0.01);  // on the boundary the margin ~ 0
  EXPECT_EQ(pt.sim.replicas, 1);
  EXPECT_TRUE(std::isfinite(pt.sim.mean_peers_mean));
}

TEST(RefineFrontier, PerRowFrontierTracksSeedRate) {
  // Same slice, three Us rows: lambda* = 5 Us. Each row must localize
  // its own flip.
  SweepGrid grid =
      parse_grid("k=1;us=0.4,0.8,1.2;mu=1;gamma=1.25;lambda=0.5:9.5:4");
  SweepOptions options;
  options.horizon = 20;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-3;
  const std::vector<FrontierPoint> points =
      frontier_points(grid, options, refine);
  ASSERT_EQ(points.size(), 3u);
  const double expected[] = {2.0, 4.0, 6.0};
  for (int row = 0; row < 3; ++row) {
    ASSERT_TRUE(points[row].bracketed) << "row " << row;
    EXPECT_NEAR(points[row].value, expected[row], refine.tol)
        << "row " << row;
  }
}

TEST(RefineFrontier, RefinesAlongUsToo) {
  // Fix lambda = 5; the boundary in Us is Us* = lambda (1 - mu/gamma)
  // = 1.
  SweepGrid grid = parse_grid("k=1;lambda=5;mu=1;gamma=1.25;us=0.2:1.7:4");
  SweepOptions options;
  options.horizon = 20;
  RefineOptions refine;
  refine.axis = "us";
  refine.tol = 5e-4;
  const std::vector<FrontierPoint> points =
      frontier_points(grid, options, refine);
  ASSERT_EQ(points.size(), 1u);
  ASSERT_TRUE(points[0].bracketed);
  EXPECT_NEAR(points[0].value, 1.0, refine.tol);
}

TEST(RefineFrontier, UnbracketedRowEmitsNaNAndSkipsSim) {
  // All-stable coarse values: no verdict flip to localize.
  SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,2,3");
  SweepOptions options;
  options.horizon = 20;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-2;
  const std::vector<FrontierPoint> points =
      frontier_points(grid, options, refine);
  ASSERT_EQ(points.size(), 1u);
  const FrontierPoint& pt = points[0];
  EXPECT_FALSE(pt.bracketed);
  EXPECT_TRUE(std::isnan(pt.value));
  EXPECT_TRUE(std::isnan(pt.margin));
  EXPECT_EQ(pt.sim.replicas, 0);
  EXPECT_TRUE(std::isnan(pt.sim.mean_peers_mean));
  // Row parameters are still reported for the non-refined axes.
  EXPECT_EQ(pt.params.us, 1.0);
  EXPECT_EQ(pt.params.k, 1);
  EXPECT_TRUE(std::isnan(pt.params.lambda));  // refined slot
}

TEST(RefineFrontier, ByteIdenticalAcrossThreadCounts) {
  SweepGrid grid =
      parse_grid("k=1;us=0.4,0.8,1.2;mu=1;gamma=1.25;lambda=0.5:9.5:4");
  SweepOptions one;
  one.horizon = 25;
  one.replicas = 3;
  one.threads = 1;
  SweepOptions four = one;
  four.threads = 4;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-2;
  const std::string csv1 = frontier_report(grid, one, refine);
  const std::string csv4 = frontier_report(grid, four, refine);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
}

TEST(RefineFrontier, FrontierSimGetsReplicaCi) {
  SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,4,6,9");
  SweepOptions options;
  options.horizon = 60;
  options.replicas = 5;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-2;
  const std::vector<FrontierPoint> points =
      frontier_points(grid, options, refine);
  const FrontierPoint& pt = points[0];
  ASSERT_TRUE(pt.bracketed);
  EXPECT_EQ(pt.sim.replicas, 5);
  EXPECT_GT(pt.sim.mean_peers_sem, 0.0);
  EXPECT_LE(pt.sim.mean_peers_lo, pt.sim.mean_peers_mean);
  EXPECT_LE(pt.sim.mean_peers_mean, pt.sim.mean_peers_hi);
}

TEST(RefineFrontier, TableSchemaIsStable) {
  SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,9");
  SweepOptions options;
  options.horizon = 10;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  const ReportTable table = read_report(frontier_report(grid, options, refine));
  ASSERT_EQ(table.num_columns(), 22u);
  EXPECT_EQ(table.columns().front(), "row");
  EXPECT_EQ(table.columns()[14], "mix");
  EXPECT_EQ(table.columns()[15], "hetero");
  EXPECT_EQ(table.columns()[20], "sim_mean_peers_hi");
  EXPECT_EQ(table.columns().back(), "sim_backend");
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.row(0)[1], "lambda");
}

TEST(RefineFrontierDeath, NonRefinableAxesAbort) {
  const SweepGrid grid = parse_grid("k=1;us=1;lambda=1,9");
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.tol = 0.1;
  refine.axis = "k";
  EXPECT_DEATH(frontier_report(grid, options, refine), "refine axis");
  refine.axis = "eta";
  EXPECT_DEATH(frontier_report(grid, options, refine), "refine axis");
  refine.axis = "hetero";  // theory is homogeneous: nothing to bisect
  EXPECT_DEATH(frontier_report(grid, options, refine), "refine axis");
  refine.axis = "bogus";
  EXPECT_DEATH(frontier_report(grid, options, refine), "refine axis");
}

TEST(RefineFrontierDeath, SingleCoarseValueAborts) {
  const SweepGrid grid = parse_grid("k=1;us=1;lambda=5");
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  EXPECT_DEATH(frontier_report(grid, options, refine),
               ">= 2 coarse values");
}

TEST(RefineFrontierDeath, InfOnRefinedAxisAborts) {
  const SweepGrid grid = parse_grid("k=1;us=1;gamma=1.25,inf;lambda=2");
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.axis = "gamma";
  refine.tol = 0.1;
  EXPECT_DEATH(frontier_report(grid, options, refine), "must be finite");
}

}  // namespace
}  // namespace p2p::engine
