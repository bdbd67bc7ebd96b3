// Golden-corpus regression suite: every archive under experiments/ is
// an executable test. Each CSV must parse under the streaming reader,
// validate against the writer's schema constants, and — because the
// corpus is a lossless record — have its physics re-derivable from the
// bytes alone: grid verdicts re-classify identically, and every
// archived frontier point re-bisects out of its own row's parameters.
// A sweep change that would quietly invalidate the archives fails
// here, not in somebody's notebook months later.
//
// The directory is enumerated, not hard-coded: archiving a new corpus
// file makes it a test automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/phase_diagram.hpp"
#include "core/stability.hpp"
#include "engine/csv_reader.hpp"
#include "engine/refine.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "service/monitor.hpp"
#include "sim/event_log.hpp"
#include "report_helpers.hpp"

#ifndef P2P_EXPERIMENTS_DIR
#error "test_corpus needs -DP2P_EXPERIMENTS_DIR=\"...\" (see CMakeLists)"
#endif

namespace p2p::engine {
namespace {

std::vector<std::filesystem::path> corpus_files(const std::string& ext) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(P2P_EXPERIMENTS_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ext) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Event logs (sim/event_log.hpp) share the .csv extension with sweep
/// reports but carry their own schema; the sweep-schema loops skip them
/// by their header signature.
bool is_event_log(const std::vector<std::string>& columns) {
  return columns == event_log_columns();
}

double cell_number(const ReportTable& table, std::size_t row,
                   const std::string& column) {
  for (std::size_t c = 0; c < table.columns().size(); ++c) {
    if (table.columns()[c] == column) {
      return parse_report_number(table.row(row)[c], column);
    }
  }
  ADD_FAILURE() << "missing column " << column;
  return std::nan("");
}

/// Rebuilds the model of one frontier row at refined-axis value `v`,
/// from nothing but the row's own cells: the generic axis columns plus
/// the per-type composition block. This is the archive's whole promise
/// — the physics is in the bytes.
SwarmParams frontier_model_at(const ReportTable& table,
                              const ReportSchema& schema,
                              std::size_t row, const std::string& axis,
                              double v) {
  CellParams p;
  p.lambda = cell_number(table, row, "lambda");
  p.us = cell_number(table, row, "us");
  p.mu = cell_number(table, row, "mu");
  p.gamma = cell_number(table, row, "gamma");
  p.k = static_cast<int>(std::lround(cell_number(table, row, "k")));
  p.eta = cell_number(table, row, "eta");
  p.flash = std::llround(cell_number(table, row, "flash"));
  p.mix = cell_number(table, row, "mix");
  p.hetero = cell_number(table, row, "hetero");

  ScenarioSpec scenario;
  if (schema.has_scenario && p.mix > 0 && p.lambda > 0) {
    scenario.name = "archived";
    scenario.num_pieces = p.k;
    for (const PieceSet type : schema.mix_types) {
      const double rate =
          cell_number(table, row, mix_column_name(type)) / (p.mix * p.lambda);
      scenario.mix.push_back({type, rate});
    }
  }

  if (axis == "lambda") {
    p.lambda = v;
  } else if (axis == "us") {
    p.us = v;
  } else if (axis == "mu") {
    p.mu = v;
  } else if (axis == "gamma") {
    p.gamma = v;
  } else if (axis == "mix") {
    p.mix = v;
  } else {
    ADD_FAILURE() << "unexpected refined axis " << axis;
  }
  return expand(scenario, p).params;
}

TEST(Corpus, EveryCsvParsesAndMatchesTheWriterSchema) {
  std::size_t grids = 0, frontiers = 0;
  for (const auto& path : corpus_files(".csv")) {
    SCOPED_TRACE(path.filename().string());
    // The streaming reader path, like a corpus bigger than memory
    // would use.
    CsvReader reader(path.string());
    if (is_event_log(reader.columns())) continue;  // own suite below
    const ReportSchema schema = validate_report_schema(reader.columns());
    std::vector<std::string> cells;
    std::size_t rows = 0;
    while (reader.next_row(&cells)) {
      ASSERT_EQ(cells.size(), schema.num_columns);
      ++rows;
    }
    EXPECT_GE(rows, 1u);
    (schema.kind == ReportKind::kGrid ? grids : frontiers) += 1;
  }
  // The corpus must actually contain both kinds — an empty experiments/
  // directory passing silently would defeat the suite.
  EXPECT_GE(grids, 1u);
  EXPECT_GE(frontiers, 2u);
}

TEST(Corpus, EveryJsonArchiveIsWellFormed) {
  std::size_t found = 0;
  for (const auto& path : corpus_files(".json")) {
    SCOPED_TRACE(path.filename().string());
    std::string text;
    {
      std::FILE* f = std::fopen(path.string().c_str(), "rb");
      ASSERT_NE(f, nullptr);
      char buf[4096];
      std::size_t got = 0;
      while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, got);
      }
      std::fclose(f);
    }
    validate_json(text, path.filename().string());
    ++found;
  }
  EXPECT_GE(found, 1u);  // bench_sweep.json at minimum
}

TEST(Corpus, ArchivedGridsReclassifyFromTheirOwnBytes) {
  for (const auto& path : corpus_files(".csv")) {
    const ReportTable table = read_report_file(path.string());
    if (is_event_log(table.columns())) continue;
    const ReportSchema schema = validate_report_schema(table.columns());
    // Adaptive archives are not cartesian tilings; they reclassify in
    // ArchivedBoxReportsReclassifyFromTheirOwnBytes instead.
    if (schema.kind != ReportKind::kGrid || schema.has_boxes) {
      continue;
    }
    SCOPED_TRACE(path.filename().string());
    // Full structural validation (axes, tiling, per-type consistency).
    const analysis::PhaseGrid grid = phase_grid_of(table);
    EXPECT_EQ(grid.cells.size(), table.num_rows());
    // Re-derive every cell's classification from the reconstructed
    // model; margins agree to reconstruction noise, verdicts exactly
    // (no archived cell sits within noise of the boundary).
    for (const analysis::PhaseCell& cell : grid.cells) {
      const StabilityReport report =
          classify(expand(grid.scenario, cell.params).params);
      EXPECT_NEAR(report.margin, cell.margin, 1e-9);
      EXPECT_EQ(report.verdict, cell.verdict);
    }
  }
}

std::string file_bytes(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

TEST(Corpus, ArchivedBoxReportsReclassifyFromTheirOwnBytes) {
  // The adaptive counterpart of the grid reclassify test: every leaf
  // row's origin vertex re-derives its Theorem-1 verdict and margin from
  // the row's own parameter columns (per-type composition included, so
  // the 4-D mix volume reconstructs its scenario too). 2-D archives
  // additionally pass the full BoxGrid structural validation — the
  // leaves tile their window.
  std::size_t reports = 0, two_axis = 0;
  for (const auto& path : corpus_files(".csv")) {
    const ReportTable table = read_report_file(path.string());
    if (is_event_log(table.columns())) continue;
    const ReportSchema schema = validate_report_schema(table.columns());
    if (!schema.has_boxes) continue;
    SCOPED_TRACE(path.filename().string());
    ++reports;
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      // frontier_model_at with the row's own lambda reconstructs the
      // row's model unchanged.
      const StabilityReport report = classify(frontier_model_at(
          table, schema, r, "lambda", cell_number(table, r, "lambda")));
      EXPECT_EQ(to_string(report.verdict), table.row(r)[schema.tail_start])
          << "row " << r;
      EXPECT_NEAR(report.margin, cell_number(table, r, "margin"), 1e-9)
          << "row " << r;
    }
    if (schema.box_axes.size() == 2) {
      const analysis::BoxGrid grid = box_grid_of(table);
      EXPECT_EQ(grid.boxes.size(), table.num_rows());
      ++two_axis;
    }
  }
  // The corpus archives both an adaptive diagram and a >2-D volume.
  EXPECT_GE(reports, 2u);
  EXPECT_GE(two_axis, 1u);
}

TEST(Corpus, AdaptiveRegionReproducesTheDenseRegionVerdicts) {
  // The acceptance anchor: on the committed 48 x 48 region_theory
  // window, the adaptive archive must agree with every dense cell it
  // claims uniformity over, cover every dense verdict flip with its
  // frontier boxes at dense-refine tolerance, and have cost under a
  // quarter of the dense sweep's 2304 cells.
  const std::string dir = P2P_EXPERIMENTS_DIR;
  const analysis::PhaseGrid dense =
      phase_grid_of(file_bytes(dir + "/region_theory.csv"));
  const analysis::BoxGrid boxes =
      box_grid_of(file_bytes(dir + "/region_adaptive.csv"));
  ASSERT_EQ(dense.x_axis, boxes.x_axis);
  ASSERT_EQ(dense.y_axis, boxes.y_axis);

  std::size_t frontier_cells = 0;
  for (std::size_t yi = 0; yi < dense.num_y(); ++yi) {
    const double y = dense.y_values[yi];
    for (std::size_t xi = 0; xi < dense.num_x(); ++xi) {
      const double x = dense.x_values[xi];
      const analysis::PhaseBox& box = boxes.box_at(x, y);
      if (box.uniform) {
        EXPECT_EQ(box.verdict, dense.at(yi, xi).verdict)
            << boxes.y_axis << " " << y << " " << boxes.x_axis << " " << x;
      } else {
        ++frontier_cells;
      }
    }
    // Localization: every dense verdict flip along the row lies inside
    // (or touching) some non-uniform leaf, and the frontier cover is at
    // the refine tolerance the dense pipeline would use (0.05).
    for (std::size_t xi = 0; xi + 1 < dense.num_x(); ++xi) {
      if (dense.at(yi, xi).verdict == dense.at(yi, xi + 1).verdict) continue;
      const double x_lo = dense.x_values[xi], x_hi = dense.x_values[xi + 1];
      bool covered = false;
      for (const analysis::PhaseBox& b : boxes.boxes) {
        if (!b.uniform && y >= b.y0 && y <= b.y0 + b.ext_y &&
            b.x0 <= x_hi && b.x0 + b.ext_x >= x_lo) {
          covered = true;
        }
      }
      EXPECT_TRUE(covered) << "flip at " << boxes.y_axis << " " << y
                           << " between " << x_lo << " and " << x_hi;
    }
  }
  EXPECT_GE(frontier_cells, 1u);
  EXPECT_LE(boxes.min_ext_x, 0.05);
  EXPECT_LE(boxes.min_ext_y, 0.05);

  // Budget: regenerate the archive (byte-identically, across the
  // scheduling matrix) and hold its vertex count under 25% of the dense
  // region sweep's 48 * 48 = 2304 cells.
  const SweepGrid coarse = parse_grid("lambda=0.5:3.0:5;us=0.2:1.7:5");
  SweepOptions options;
  options.theory_only = true;
  AdaptiveOptions adaptive;
  adaptive.max_depth = 4;
  const std::string archived = file_bytes(dir + "/region_adaptive.csv");
  for (const int threads : {1, 8}) {
    for (const std::size_t chunk : {std::size_t{5}, std::size_t{0}}) {
      options.threads = threads;
      options.chunk = chunk;
      std::string out;
      ReportWriter writer(&out, ReportFormat::kCsv,
                          adaptive_columns(coarse, options));
      const AdaptiveSummary summary =
          run_adaptive_stream(coarse, options, adaptive, writer);
      writer.finish();
      EXPECT_EQ(out, archived) << "threads " << threads << " chunk " << chunk;
      EXPECT_LT(summary.evaluated, 2304u / 4);
      EXPECT_EQ(summary.boxes, boxes.boxes.size());
    }
  }
}

TEST(Corpus, ArchivedFrontierPointsRederiveFromTheirRows) {
  std::size_t checked = 0;
  for (const auto& path : corpus_files(".csv")) {
    const ReportTable table = read_report_file(path.string());
    if (is_event_log(table.columns())) continue;
    const ReportSchema schema = validate_report_schema(table.columns());
    if (schema.kind != ReportKind::kFrontier) continue;
    SCOPED_TRACE(path.filename().string());

    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      SCOPED_TRACE("row " + std::to_string(r));
      const std::string axis = table.row(r)[1];
      const bool bracketed = cell_number(table, r, "bracketed") != 0;
      if (!bracketed) continue;
      const double value = cell_number(table, r, "value");
      const double lo = cell_number(table, r, "value_lo");
      const double hi = cell_number(table, r, "value_hi");
      const double margin = cell_number(table, r, "margin");

      // The midpoint identity is exact: value was computed as
      // 0.5 * (lo + hi) from these very doubles.
      EXPECT_EQ(value, 0.5 * (lo + hi));
      EXPECT_LT(lo, hi);
      EXPECT_LE(hi - lo, 0.01);  // archived tolerances are ~1e-3

      // The bracket still brackets: the Theorem-1 verdict flips across
      // [lo, hi] for the row's reconstructed model.
      const Stability at_lo =
          classify(frontier_model_at(table, schema, r, axis, lo)).verdict;
      const Stability at_hi =
          classify(frontier_model_at(table, schema, r, axis, hi)).verdict;
      EXPECT_NE(at_lo, at_hi);

      // And the archived margin is the closed form at the midpoint.
      const StabilityReport at_value =
          classify(frontier_model_at(table, schema, r, axis, value));
      EXPECT_NEAR(at_value.margin, margin, 1e-9);
      ++checked;
    }
  }
  EXPECT_GE(checked, 10u);  // the two archived frontiers alone carry 10
}

TEST(Corpus, ArchivedReportsRegenerateByteIdentically) {
  // The archives are not merely re-derivable — the engine must still
  // EMIT them, byte for byte, at any thread count and chunk size. This
  // is the whole-pipeline determinism contract (worker-side rendering
  // included) run against the two cheapest archives; EXPERIMENTS.md
  // records the generating commands these options mirror.
  const std::string dir = P2P_EXPERIMENTS_DIR;
  {
    // p2p_sweep --grid "lambda=0.5:3.0:48;us=0.2:1.7:48" --theory-only
    const SweepGrid grid =
        parse_grid("lambda=0.5:3.0:48;us=0.2:1.7:48");
    SweepOptions options;
    options.theory_only = true;
    const std::string archived = file_bytes(dir + "/region_theory.csv");
    for (const int threads : {1, 2, 8}) {
      for (const std::size_t chunk : {std::size_t{7}, std::size_t{0}}) {
        options.threads = threads;
        options.chunk = chunk;
        std::string out;
        ReportWriter writer(&out, ReportFormat::kCsv,
                            sweep_columns(options));
        run_sweep_stream(grid, options, writer);
        writer.finish();
        EXPECT_EQ(out, archived)
            << "threads " << threads << " chunk " << chunk;
      }
    }
  }
  {
    // p2p_sweep --grid "k=2;gamma=1.25;lambda=0.75:4.75:9;us=0.2:1.0:5"
    //   --replicas 4 --warmup 100 --horizon 400 --fluid [--policy rarest]
    const SweepGrid grid =
        parse_grid("k=2;gamma=1.25;lambda=0.75:4.75:9;us=0.2:1.0:5");
    SweepOptions options;
    options.replicas = 4;
    options.warmup = 100;
    options.horizon = 400;
    options.fluid = true;
    for (const bool rarest : {false, true}) {
      options.scenario.policy =
          rarest ? PolicyKind::kRarestFirst : PolicyKind::kRandomUseful;
      const std::string archived = file_bytes(
          dir + (rarest ? "/policy_rarest_region.csv"
                        : "/policy_baseline_region.csv"));
      for (const int threads : {1, 4}) {
        options.threads = threads;
        std::string out;
        ReportWriter writer(&out, ReportFormat::kCsv,
                            sweep_columns(options));
        run_sweep_stream(grid, options, writer);
        writer.finish();
        EXPECT_EQ(out, archived)
            << (rarest ? "rarest" : "baseline") << " threads " << threads;
      }
    }
  }
  {
    // p2p_sweep --mix example2:3,1
    //   --grid "us=1;mu=1;gamma=inf;mix=0:1:5;lambda=0.6:3.0:9"
    //   --replicas 4 --warmup 100 --horizon 400
    SweepGrid grid =
        parse_grid("us=1;mu=1;gamma=inf;mix=0:1:5;lambda=0.6:3.0:9");
    SweepOptions options;
    options.scenario = parse_scenario("example2:3,1");
    // The CLI pins the k axis to the scenario's piece count when the
    // grid does not name one.
    grid.set_axis(
        Axis{"k", {static_cast<double>(options.scenario.num_pieces)}});
    options.replicas = 4;
    options.warmup = 100;
    options.horizon = 400;
    const std::string archived =
        file_bytes(dir + "/mix_example2_region.csv");
    for (const int threads : {1, 8}) {
      options.threads = threads;
      std::string out;
      ReportWriter writer(&out, ReportFormat::kCsv, sweep_columns(options));
      run_sweep_stream(grid, options, writer);
      writer.finish();
      EXPECT_EQ(out, archived) << "threads " << threads;
    }
  }
  {
    // p2p_sweep --mix example2:3,1
    //   --grid "us=0.5:1.5:3;gamma=inf;lambda=0.6:3.0:4;mu=0.8:1.2:3;mix=0:1:3"
    //   --adaptive 2 --theory-only
    SweepGrid grid = parse_grid(
        "us=0.5:1.5:3;gamma=inf;lambda=0.6:3.0:4;mu=0.8:1.2:3;mix=0:1:3");
    SweepOptions options;
    options.theory_only = true;
    options.scenario = parse_scenario("example2:3,1");
    grid.set_axis(
        Axis{"k", {static_cast<double>(options.scenario.num_pieces)}});
    AdaptiveOptions adaptive;
    adaptive.max_depth = 2;
    const std::string archived =
        file_bytes(dir + "/mix_adaptive_volume.csv");
    for (const int threads : {1, 4}) {
      options.threads = threads;
      std::string out;
      ReportWriter writer(&out, ReportFormat::kCsv,
                          adaptive_columns(grid, options));
      run_adaptive_stream(grid, options, adaptive, writer);
      writer.finish();
      EXPECT_EQ(out, archived) << "threads " << threads;
    }
  }
}

TEST(Corpus, RegionGridReproducesItsArchivedFrontier) {
  // The acceptance pairing: extract_frontier over the archived
  // mix_example2 region reproduces the separately archived frontier
  // run, row for row, to the refine tolerance (the brackets coincide,
  // so in practice bit-exactly; the tolerance guards future corpora).
  const std::string dir = P2P_EXPERIMENTS_DIR;
  const ReportTable region = read_report_file(dir + "/mix_example2_region.csv");
  const ReportTable archived =
      read_report_file(dir + "/mix_example2_frontier.csv");

  const analysis::PhaseGrid grid = phase_grid_of(region);
  ASSERT_EQ(grid.x_axis, "mix");
  ASSERT_EQ(grid.y_axis, "lambda");
  const auto extracted = analysis::extract_frontier(grid, 1e-3);

  std::size_t matched = 0;
  for (std::size_t r = 0; r < archived.num_rows(); ++r) {
    ASSERT_EQ(archived.row(r)[1], "mix");
    const double lambda = cell_number(archived, r, "lambda");
    const double value = cell_number(archived, r, "value");
    for (std::size_t yi = 0; yi < grid.num_y(); ++yi) {
      if (grid.y_values[yi] != lambda) continue;
      ASSERT_TRUE(extracted[yi].bracketed) << "lambda " << lambda;
      EXPECT_NEAR(extracted[yi].value, value, 2e-3) << "lambda " << lambda;
      ++matched;
    }
  }
  // Every archived frontier row's lambda appears in the region grid.
  EXPECT_EQ(matched, archived.num_rows());
}

std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < bytes.size()) {
    const auto pos = bytes.find('\n', start);
    EXPECT_NE(pos, std::string::npos) << "unterminated final line";
    if (pos == std::string::npos) break;
    lines.push_back(bytes.substr(start, pos - start));
    start = pos + 1;
  }
  return lines;
}

TEST(Corpus, MonitorEventLogParsesWholeWithMonotoneTimestamps) {
  // The committed frontier-crossing trace: every line parses under the
  // strict event grammar, timestamps never go backwards, and all four
  // event kinds actually occur (a trace without departures or seed
  // uploads could not exercise the gamma / Us estimators it exists to
  // feed).
  const std::string bytes =
      file_bytes(std::string(P2P_EXPERIMENTS_DIR) + "/monitor_events.csv");
  ASSERT_FALSE(bytes.empty()) << "experiments/monitor_events.csv missing";
  const std::vector<std::string> lines = split_lines(bytes);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0] + "\n", event_log_csv_header());

  double prev_t = 0;
  std::size_t arrive = 0, depart = 0, piece = 0, seed = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const SwarmEvent event = parse_event_line(lines[i], i + 1, 3);
    EXPECT_GE(event.t, prev_t) << "line " << i + 1;
    prev_t = event.t;
    switch (event.kind) {
      case SwarmEventKind::kArrive: ++arrive; break;
      case SwarmEventKind::kDepart: ++depart; break;
      case SwarmEventKind::kPiece: ++piece; break;
      case SwarmEventKind::kSeed: ++seed; break;
    }
  }
  EXPECT_GE(arrive, 1u);
  EXPECT_GE(depart, 1u);
  EXPECT_GE(piece, 1u);
  EXPECT_GE(seed, 1u);
}

TEST(Corpus, MonitorAdvisoryStreamReplaysByteIdentically) {
  // The monitor determinism contract, pinned end to end: replaying the
  // committed event log through StabilityMonitor with the EXPERIMENTS.md
  // configuration reproduces the committed advisory stream byte for
  // byte — and the trace's two frontier crossings produce exactly two
  // verdict flips under the default hysteresis.
  const std::string dir = P2P_EXPERIMENTS_DIR;
  const std::string events_bytes = file_bytes(dir + "/monitor_events.csv");
  const std::string advice_bytes = file_bytes(dir + "/monitor_advice.jsonl");
  ASSERT_FALSE(events_bytes.empty());
  ASSERT_FALSE(advice_bytes.empty()) << "experiments/monitor_advice.jsonl";

  // p2p_monitor --k 3 --in monitor_events.csv --window 40 --every 5
  service::MonitorConfig config;
  config.num_pieces = 3;
  config.window = 40;
  config.buckets = 64;
  config.advice_every = 5;
  service::StabilityMonitor monitor(config);

  std::string out;
  const service::AdvisorySink sink = [&](const service::Advisory& advisory) {
    out += service::advisory_json_line(advisory);
  };
  const std::vector<std::string> lines = split_lines(events_bytes);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    monitor.feed(parse_event_line(lines[i], i + 1, 3), lines[i], i + 1,
                 sink);
  }
  monitor.finish(sink);

  EXPECT_EQ(out, advice_bytes);
  EXPECT_EQ(monitor.flips(), 2u);  // stable -> unstable -> stable
  EXPECT_EQ(monitor.verdict(), service::MonitorVerdict::kStable);
}

}  // namespace
}  // namespace p2p::engine
