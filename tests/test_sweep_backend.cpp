// Backend selection at the sweep layer: kAuto resolves to the
// type-count simulator on exactly the cells where its exchangeable
// state is the same law as per-peer (RandomUseful, eta = 1, hetero = 0,
// K <= 16), the report records the per-cell resolution in the trailing
// sim_backend column, and a forced out-of-domain request dies naming
// the offending axis — the same message p2p_sweep prints as a friendly
// error before the engine ever spins up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

TEST(SimBackendResolution, AutoMatchesTheDomainRule) {
  // 2 x 2 grid crossing the two domain axes: only the (eta = 1,
  // hetero = 0) corner may run type-count.
  SweepGrid grid = parse_grid("lambda=1;us=1;k=2;eta=1,1.5;hetero=0,0.4");
  SweepOptions options;
  options.horizon = 10;
  const ReportTable table = read_report(sweep_report(grid, options));
  const std::vector<CellResult> cells = decode_cells(table);
  ASSERT_EQ(cells.size(), 4u);
  ASSERT_EQ(table.columns().back(), std::string(kSimBackendColumn));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    const bool fast = c.eta == 1.0 && c.hetero == 0.0;
    CellParams p;
    p.lambda = c.lambda;
    p.us = c.us;
    p.eta = c.eta;
    p.hetero = c.hetero;
    p.k = c.k;
    EXPECT_EQ(typecount_in_domain(p), fast);
    EXPECT_EQ(cells[i].backend,
              fast ? SimBackend::kTypeCount : SimBackend::kPerPeer)
        << "cell " << i;
    EXPECT_EQ(table.row(i).back(), fast ? "typecount" : "perpeer")
        << "cell " << i;
  }
}

TEST(SimBackendResolution, ForcedBackendsOverrideAuto) {
  SweepGrid grid = parse_grid("lambda=1;us=1;k=1");
  SweepOptions options;
  options.horizon = 10;

  options.sim_backend = SimBackend::kPerPeer;
  ReportTable table = read_report(sweep_report(grid, options));
  EXPECT_EQ(table.row(0).back(), "perpeer");

  // Forcing type-count on an in-domain grid is legal and recorded.
  options.sim_backend = SimBackend::kTypeCount;
  table = read_report(sweep_report(grid, options));
  EXPECT_EQ(table.row(0).back(), "typecount");
}

TEST(SimBackendResolution, TheoryOnlyOmitsTheColumn) {
  // No simulator ran, so there is no resolution to record — and the
  // archived theory-only corpora keep their pre-backend byte layout.
  SweepGrid grid = parse_grid("lambda=1;us=1;k=1");
  SweepOptions options;
  options.theory_only = true;
  const ReportTable table = read_report(sweep_report(grid, options));
  EXPECT_EQ(table.columns().back(), "ctmc_mean_peers");
  EXPECT_EQ(std::find(table.columns().begin(), table.columns().end(),
                      std::string(kSimBackendColumn)),
            table.columns().end());
}

TEST(SimBackendResolution, FrontierRecordsTheResolution) {
  SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,9");
  SweepOptions options;
  options.horizon = 10;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  const ReportTable table = read_report(frontier_report(grid, options, refine));
  ASSERT_EQ(table.columns().back(), std::string(kSimBackendColumn));
  ASSERT_EQ(table.num_rows(), 1u);
  // Homogeneous K = 1 cell: in domain, so kAuto localized the frontier
  // on the type-count backend.
  EXPECT_EQ(table.row(0).back(), "typecount");
}

TEST(TypecountDomainViolation, NamesTheOffendingAxisAndValue) {
  const auto violation = [](const char* grid) {
    return typecount_domain_violation(parse_grid(grid), ScenarioSpec{});
  };
  EXPECT_EQ(violation("lambda=1;us=1;k=2"), "");
  const std::string eta = violation("lambda=1;us=1;k=2;eta=1,1.5");
  EXPECT_NE(eta.find("eta = 1"), std::string::npos) << eta;
  EXPECT_NE(eta.find("axis eta takes the value 1.5"), std::string::npos)
      << eta;
  const std::string hetero = violation("lambda=1;us=1;k=2;hetero=0.4");
  EXPECT_NE(hetero.find("hetero = 0"), std::string::npos) << hetero;
  const std::string wide = violation("lambda=1;us=1;k=18");
  EXPECT_NE(wide.find("k <= 16"), std::string::npos) << wide;
}

TEST(SimBackendDeath, ForcedTypeCountOutOfDomainAborts) {
  SweepGrid grid = parse_grid("lambda=1;us=1;k=2;eta=1,1.5");
  SweepOptions options;
  options.horizon = 10;
  options.sim_backend = SimBackend::kTypeCount;
  EXPECT_DEATH(sweep_report(grid, options), "axis eta takes the value 1.5");
}

TEST(SimBackendResolution, BackendsAgreeOnSweepOccupancy) {
  // End-to-end cross-check through the sweep pipeline: the same stable
  // cell simulated under both backends (different RNG laws, so the
  // agreement is statistical, not bitwise) lands on the same occupancy.
  // The sharp distribution-level equivalence lives in
  // test_typecount_sim.cpp; this pins the sweep wiring — seeds are
  // fixed, so the comparison is deterministic.
  SweepGrid grid = parse_grid("lambda=2;us=1;mu=1;gamma=inf;k=1");
  SweepOptions options;
  options.replicas = 8;
  options.warmup = 200;
  options.horizon = 1000;

  options.sim_backend = SimBackend::kPerPeer;
  const double per_peer =
      sweep_cells(grid, options)[0].sim.mean_peers_mean;
  options.sim_backend = SimBackend::kTypeCount;
  const double type_count =
      sweep_cells(grid, options)[0].sim.mean_peers_mean;
  ASSERT_TRUE(std::isfinite(per_peer));
  ASSERT_TRUE(std::isfinite(type_count));
  EXPECT_NEAR(type_count / per_peer, 1.0, 0.15)
      << "perpeer " << per_peer << " vs typecount " << type_count;
}

}  // namespace
}  // namespace p2p::engine
