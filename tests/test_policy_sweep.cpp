// The policy scenario dimension end to end: a --policy=random sweep is
// bit-identical to the baseline (no policy column, same bytes), the
// non-baseline policies add the trailing policy column (and --fluid the
// fluid_verdict column) in a shape validate_report_schema and the phase
// ingester both accept, every work-conserving policy reproduces the
// exact truncated-CTMC occupancy on a small stable cell (Theorem 14's
// insensitivity, checked within the replica CI), the type-count backend
// refuses non-RandomUseful policies up front naming the axis, and
// policy sweeps keep the byte-determinism contract across thread
// counts.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/phase_diagram.hpp"
#include "ctmc/stationary.hpp"
#include "engine/csv_reader.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "sim/policy.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

SweepOptions sim_options() {
  SweepOptions options;
  options.horizon = 60;
  options.replicas = 2;
  options.threads = 2;
  return options;
}

TEST(PolicySweep, ExplicitRandomUsefulIsByteIdenticalToBaseline) {
  const SweepGrid grid = parse_grid("k=2;lambda=0.8:2:4;us=1");
  const SweepOptions baseline = sim_options();
  SweepOptions explicit_random = sim_options();
  explicit_random.scenario.policy = PolicyKind::kRandomUseful;

  const std::string csv = sweep_report(grid, baseline);
  EXPECT_EQ(csv, sweep_report(grid, explicit_random));
  const ReportTable a = read_report(csv);
  // The baseline never grows a policy column: archived corpora keep
  // their bytes.
  for (const std::string& column : a.columns()) {
    EXPECT_NE(column, std::string(kPolicyColumn));
  }
  EXPECT_EQ(a.columns().back(), std::string(kSimBackendColumn));
}

TEST(PolicySweep, PolicyAndFluidColumnsValidateAndIngest) {
  const SweepGrid grid = parse_grid("k=2;lambda=0.8:2:4;us=0.6,1.2");
  SweepOptions options = sim_options();
  options.scenario.policy = PolicyKind::kRarestFirst;
  options.fluid = true;

  const ReportTable table = read_report(sweep_report(grid, options));
  const std::vector<std::string>& columns = table.columns();
  ASSERT_GE(columns.size(), 3u);
  EXPECT_EQ(columns[columns.size() - 3], std::string(kSimBackendColumn));
  EXPECT_EQ(columns[columns.size() - 2], std::string(kPolicyColumn));
  EXPECT_EQ(columns.back(), std::string(kFluidVerdictColumn));

  const ReportSchema schema = validate_report_schema(columns);
  EXPECT_TRUE(schema.has_backend);
  EXPECT_TRUE(schema.has_policy);
  EXPECT_TRUE(schema.has_fluid);

  // Round trip through the analysis ingester: the policy token and the
  // per-cell fluid verdicts survive the archive.
  const analysis::PhaseGrid phase = phase_grid_of(table);
  EXPECT_EQ(phase.policy, "rarest-first");
  EXPECT_TRUE(phase.has_fluid);
  ASSERT_EQ(phase.cells.size(), table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(table.row(r).back(), to_string(phase.cells[r].fluid))
        << "row " << r;
  }
  const analysis::VerdictAgreement agreement =
      analysis::verdict_agreement(phase);
  EXPECT_TRUE(agreement.has_fluid);
  std::size_t fluid_total = 0;
  for (int t = 0; t < 3; ++t) {
    for (int f = 0; f < 3; ++f) fluid_total += agreement.fluid_counts[t][f];
  }
  EXPECT_EQ(fluid_total, phase.cells.size());
}

TEST(PolicySweep, TheoryOnlyFluidGridHasNoBackendOrPolicyColumn) {
  const SweepGrid grid = parse_grid("k=2;lambda=0.8:2:4;us=1");
  SweepOptions options;
  options.theory_only = true;
  options.fluid = true;
  // A non-baseline policy is meaningless without a simulator; the
  // column stays suppressed so the header never claims a policy ran.
  options.scenario.policy = PolicyKind::kSequential;

  const ReportTable table = read_report(sweep_report(grid, options));
  EXPECT_EQ(table.columns().back(), std::string(kFluidVerdictColumn));
  for (const std::string& column : table.columns()) {
    EXPECT_NE(column, std::string(kPolicyColumn));
    EXPECT_NE(column, std::string(kSimBackendColumn));
  }
  const ReportSchema schema = validate_report_schema(table.columns());
  EXPECT_FALSE(schema.has_backend);
  EXPECT_FALSE(schema.has_policy);
  EXPECT_TRUE(schema.has_fluid);
}

TEST(PolicySweep, EveryPolicyReproducesTheCtmcOccupancy) {
  // Theorem 14: on a stable homogeneous cell every work-conserving
  // policy has the same stationary law, so each policy's replica-mean
  // occupancy must bracket the exact truncated-chain E[N]. K = 2 keeps
  // the chain tiny; the cell sits well inside the stability region so
  // the truncation cap loses negligible mass.
  const SweepGrid grid = parse_grid("k=2;lambda=1;us=1;mu=1;gamma=1.25");
  const CellParams cell = [&] {
    SweepOptions theory;
    theory.theory_only = true;
    const CellResult c = sweep_cells(grid, theory).at(0);
    CellParams p;
    p.lambda = c.lambda;
    p.us = c.us;
    p.mu = c.mu;
    p.gamma = c.gamma;
    p.k = c.k;
    return p;
  }();
  const double exact =
      solve_truncated_swarm(expand(ScenarioSpec{}, cell).params,
                            /*max_peers=*/40)
          .mean_peers();
  ASSERT_TRUE(std::isfinite(exact));

  for (const PolicyKind policy :
       {PolicyKind::kRandomUseful, PolicyKind::kRarestFirst,
        PolicyKind::kMostCommonFirst, PolicyKind::kSequential}) {
    SweepOptions options;
    options.horizon = 2000;
    options.warmup = 200;
    options.replicas = 8;
    options.threads = 4;
    options.scenario.policy = policy;
    const std::vector<CellResult> cells = sweep_cells(grid, options);
    ASSERT_EQ(cells.size(), 1u);
    const SimAggregate& sim = cells[0].sim;
    ASSERT_TRUE(std::isfinite(sim.mean_peers_mean)) << to_string(policy);
    // The bootstrap CI over 8 replicas is a rough instrument; widen it
    // by half the exact mean so the test pins the law, not the noise.
    const double slack = 0.5 * exact;
    EXPECT_GT(sim.mean_peers_hi + slack, exact) << to_string(policy);
    EXPECT_LT(sim.mean_peers_lo - slack, exact) << to_string(policy);
    EXPECT_NEAR(sim.mean_peers_mean, exact, slack) << to_string(policy);
  }
}

TEST(PolicySweep, StreamBytesAreThreadCountInvariant) {
  const SweepGrid grid = parse_grid("k=2;lambda=0.8:2:6;us=0.6,1.2");
  const auto render = [&](int threads) {
    SweepOptions options = sim_options();
    options.scenario.policy = PolicyKind::kMostCommonFirst;
    options.fluid = true;
    options.threads = threads;
    std::string out;
    ReportWriter writer(&out, ReportFormat::kCsv, sweep_columns(options));
    run_sweep_stream(grid, options, writer);
    writer.finish();
    return out;
  };
  EXPECT_EQ(render(1), render(4));
}

TEST(PolicySweepDeath, ForcedTypecountRejectsNonBaselinePolicyByName) {
  const SweepGrid grid = parse_grid("k=2;lambda=1;us=1");
  SweepOptions options = sim_options();
  options.scenario.policy = PolicyKind::kRarestFirst;
  options.sim_backend = SimBackend::kTypeCount;
  EXPECT_DEATH(sweep_report(grid, options),
               "axis policy takes the value rarest-first");
  // The friendly-message helper names the same violation for the CLI.
  EXPECT_NE(typecount_domain_violation(SweepGrid{}, options.scenario).find(
                "rarest-first"),
            std::string::npos);
}

}  // namespace
}  // namespace p2p::engine
