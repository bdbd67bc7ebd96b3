// Golden-file guard for the sweep report schema. Archived sweep CSVs are
// a corpus: downstream plotting and diffing rely on the exact header
// order and on format_number's shortest-round-trip rendering. A report
// refactor that silently reorders, renames or reformats columns must
// fail here, not in somebody's notebook months later.
//
// Numeric *values* are deliberately not goldened — they go through libm
// (log in the exponential sampler), whose last-ulp rounding may differ
// across platforms. The schema and the format round-trip are the
// portable contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "engine/parse_util.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

constexpr const char* kGridHeader =
    "cell,lambda,us,mu,gamma,k,eta,flash,mix,hetero,verdict,margin,"
    "critical_piece,replicas,sim_final_peers,sim_mean_peers,"
    "sim_mean_sojourn,sim_mean_peers_sem,sim_mean_peers_lo,"
    "sim_mean_peers_hi,ctmc_mean_peers,sim_backend";

constexpr const char* kFrontierHeader =
    "row,axis,bracketed,value,value_lo,value_hi,margin,lambda,us,mu,gamma,"
    "k,eta,flash,mix,hetero,replicas,sim_mean_peers,sim_mean_peers_sem,"
    "sim_mean_peers_lo,sim_mean_peers_hi,sim_backend";

TEST(SweepGolden, GridCsvHeaderIsTheArchivedSchema) {
  SweepGrid grid = parse_grid("lambda=1;us=1;k=1");
  SweepOptions options;
  options.horizon = 10;
  const std::string csv = sweep_report(grid, options);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), kGridHeader);
}

TEST(SweepGolden, ScenarioCsvHeaderInsertsPerTypeRateColumns) {
  // With a named mix, the per-type arrival-rate columns sit between the
  // axis block and the verdict block — '.'-joined one-based piece
  // indices, so the header needs no CSV quoting and stays naively
  // splittable.
  SweepGrid grid = parse_grid("lambda=2;us=1;gamma=inf;k=4;mix=1");
  SweepOptions options;
  options.horizon = 10;
  options.scenario = parse_scenario("example2:3,1");
  const std::string csv = sweep_report(grid, options);
  const ReportTable table = read_report(csv);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header,
            "cell,lambda,us,mu,gamma,k,eta,flash,mix,hetero,"
            "lambda_empty,lambda_t1.2,lambda_t3.4,verdict,margin,"
            "critical_piece,replicas,sim_final_peers,sim_mean_peers,"
            "sim_mean_sojourn,sim_mean_peers_sem,sim_mean_peers_lo,"
            "sim_mean_peers_hi,ctmc_mean_peers,sim_backend");
  // The rate columns carry the interpolated composition.
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.row(0)[10], "0");    // lambda_empty at mix=1
  EXPECT_EQ(table.row(0)[11], "1.5");  // 2 * 0.75
  EXPECT_EQ(table.row(0)[12], "0.5");  // 2 * 0.25
}

TEST(SweepGolden, FrontierCsvHeaderIsTheArchivedSchema) {
  SweepGrid grid = parse_grid("k=1;us=1;mu=1;gamma=1.25;lambda=1,9");
  SweepOptions options;
  options.horizon = 10;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  const std::string csv = frontier_report(grid, options, refine);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), kFrontierHeader);
}

TEST(SweepGolden, ScenarioFrontierCsvRecordsTheComposition) {
  // An archived frontier CSV must also record the per-type arrival
  // rates at the localized point — the weights are not recoverable from
  // the generic axis columns alone.
  SweepGrid grid = parse_grid("k=4;us=1;mu=1;gamma=inf;lambda=2;mix=0:1:5");
  SweepOptions options;
  options.horizon = 10;
  options.scenario = parse_scenario("example2:3,1");
  RefineOptions refine;
  refine.axis = "mix";
  refine.tol = 1e-3;
  const std::string csv = frontier_report(grid, options, refine);
  const ReportTable table = read_report(csv);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "row,axis,bracketed,value,value_lo,value_hi,margin,lambda,us,"
            "mu,gamma,k,eta,flash,mix,hetero,lambda_empty,lambda_t1.2,"
            "lambda_t3.4,replicas,sim_mean_peers,sim_mean_peers_sem,"
            "sim_mean_peers_lo,sim_mean_peers_hi,sim_backend");
  ASSERT_EQ(table.num_rows(), 1u);
  // lambda_t1.2 + lambda_t3.4 + lambda_empty = lambda at the frontier.
  const double empty = std::strtod(table.row(0)[16].c_str(), nullptr);
  const double t12 = std::strtod(table.row(0)[17].c_str(), nullptr);
  const double t34 = std::strtod(table.row(0)[18].c_str(), nullptr);
  EXPECT_NEAR(empty + t12 + t34, 2.0, 1e-12);
  EXPECT_NEAR(t12, 3 * t34, 1e-12);
}

TEST(SweepGolden, EveryNumericCellRoundTripsThroughFormatNumber) {
  // The archival contract of format_number: any numeric cell, parsed
  // back with strtod, re-formats to the identical string — so a CSV is
  // a lossless record of the doubles that produced it.
  SweepGrid grid = parse_grid("lambda=0.5:3.0:3;us=0.7,1.3;k=2;gamma=1.25");
  SweepOptions options;
  options.horizon = 40;
  options.replicas = 3;
  options.ctmc_max_peers = 10;
  const std::string csv = sweep_report(grid, options);
  const std::vector<std::string> lines = split_list(csv, '\n');
  ASSERT_GE(lines.size(), 2u);
  int numeric_cells = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;  // trailing newline
    for (const std::string& cell : split_list(lines[i], ',')) {
      if (cell == "nan" || cell == "inf" || cell == "-inf") continue;
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (cell.empty() || end != cell.c_str() + cell.size()) {
        continue;  // verdict strings etc.
      }
      EXPECT_EQ(format_number(v), cell);
      ++numeric_cells;
    }
  }
  // 6 cells x 18 numeric columns: the loop must actually have checked a
  // table's worth of numbers, not skipped everything.
  EXPECT_GE(numeric_cells, 100);
}

TEST(SweepGolden, JsonKeysFollowTheCsvHeaderOrder) {
  SweepGrid grid = parse_grid("lambda=1;us=1;k=1");
  SweepOptions options;
  options.horizon = 10;
  const std::string json =
      sweep_report(grid, options, ReportFormat::kJson);
  // Key order inside a row object mirrors the CSV column order, and NaN
  // uncertainty columns become JSON null, not the string "nan".
  const auto cell_pos = json.find("\"cell\": 0");
  const auto lambda_pos = json.find("\"lambda\": 1");
  const auto verdict_pos = json.find("\"verdict\": ");
  const auto ctmc_pos = json.find("\"ctmc_mean_peers\": null");
  ASSERT_NE(cell_pos, std::string::npos);
  ASSERT_NE(lambda_pos, std::string::npos);
  ASSERT_NE(verdict_pos, std::string::npos);
  ASSERT_NE(ctmc_pos, std::string::npos);
  EXPECT_LT(cell_pos, lambda_pos);
  EXPECT_LT(lambda_pos, verdict_pos);
  EXPECT_LT(verdict_pos, ctmc_pos);
}

}  // namespace
}  // namespace p2p::engine
