// Streaming frontier emission: run_frontier_stream must emit the exact
// bytes of refine_frontier(...).write() for any (threads, chunk)
// combination, in both formats — the archived frontier corpora and the
// CI determinism diffs depend on the bytes, not the parsed content.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "report_helpers.hpp"

namespace p2p::engine {
namespace {

std::string stream_frontier(const SweepGrid& grid, const SweepOptions& options,
                            const RefineOptions& refine,
                            ReportFormat format) {
  std::string out;
  ReportWriter writer(&out, format, frontier_columns(options));
  run_frontier_stream(grid, options, refine, writer);
  writer.finish();
  return out;
}

TEST(FrontierStream, BytesEqualInMemoryEmitterAcrossThreadsAndChunks) {
  // The satellite determinism matrix: threads {1, 2, 8} x chunk
  // {1, 7, auto}, streamed bytes vs the retained-points emitter, both
  // formats. Chunk 7 divides neither replica count, so rows straddle
  // block boundaries; with 64 replicas at chunk 1 a row spans more
  // blocks than the claim window.
  struct Shape {
    const char* grid;
    int replicas;
  };
  for (const Shape& shape :
       {Shape{"k=1;us=0.4,0.8,1.2;mu=1;gamma=1.25;lambda=0.5:9.5:4", 3},
        Shape{"k=1;us=0.4,0.8,1.2;mu=1;gamma=1.25;lambda=0.5:9.5:4", 64}}) {
    const SweepGrid grid = parse_grid(shape.grid);
    SweepOptions base;
    base.horizon = shape.replicas > 8 ? 10 : 25;
    base.replicas = shape.replicas;
    RefineOptions refine;
    refine.axis = "lambda";
    refine.tol = 1e-2;

    const FrontierResult result = refine_frontier(grid, base, refine);
    const std::string want_csv = render(result);
    const std::string want_json = render(result, ReportFormat::kJson);
    ASSERT_EQ(result.points.size(), 3u);

    for (const int threads : {1, 2, 8}) {
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
        SweepOptions options = base;
        options.threads = threads;
        options.chunk = chunk;
        EXPECT_EQ(stream_frontier(grid, options, refine, ReportFormat::kCsv),
                  want_csv)
            << "replicas " << shape.replicas << " threads " << threads
            << " chunk " << chunk;
        EXPECT_EQ(stream_frontier(grid, options, refine, ReportFormat::kJson),
                  want_json)
            << "replicas " << shape.replicas << " threads " << threads
            << " chunk " << chunk;
      }
    }
  }
}

TEST(FrontierStream, ScenarioColumnsStreamIdentically) {
  // Mixed-arrival frontier (per-type rate columns, refinement along
  // mix): the wider schema must stream byte-identically too.
  SweepGrid grid = parse_grid("k=4;us=1;mu=1;gamma=inf;lambda=1.2,3;mix=0:1:5");
  SweepOptions base;
  base.horizon = 20;
  base.replicas = 2;
  base.scenario = parse_scenario("example2:3,1");
  RefineOptions refine;
  refine.axis = "mix";
  refine.tol = 1e-3;

  const std::string want =
      render(refine_frontier(grid, base, refine));
  for (const int threads : {1, 8}) {
    SweepOptions options = base;
    options.threads = threads;
    EXPECT_EQ(stream_frontier(grid, options, refine, ReportFormat::kCsv),
              want)
        << "threads " << threads;
  }
}

TEST(FrontierStream, UnbracketedRowsStreamAndCount) {
  // lambda* = 5 Us: with coarse lambda {1, 4}, the us = 0.4 row
  // brackets (2 in (1, 4)) and the us = 1.2 row does not (6 outside).
  SweepGrid grid = parse_grid("k=1;us=0.4,1.2;mu=1;gamma=1.25;lambda=1,4");
  SweepOptions options;
  options.horizon = 15;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 1e-2;

  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, frontier_columns(options));
  const FrontierSummary summary =
      run_frontier_stream(grid, options, refine, writer);
  writer.finish();
  EXPECT_EQ(summary.rows, 2u);
  EXPECT_EQ(summary.bracketed, 1u);
  EXPECT_EQ(out, render(refine_frontier(grid, options, refine)));
}

TEST(FrontierStreamDeath, WrongWriterColumnsAbort) {
  SweepGrid grid = parse_grid("k=1;us=1;lambda=1,9");
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"wrong"});
  EXPECT_DEATH(run_frontier_stream(grid, options, refine, writer),
               "frontier_columns");
  writer.finish();
}

TEST(FrontierStreamDeath, TheoryOnlyAborts) {
  SweepGrid grid = parse_grid("k=1;us=1;lambda=1,9");
  SweepOptions options;
  options.horizon = 5;
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

TEST(FrontierStream, AbortingRunLeavesExistingFileUntouched) {
  // The abort-preserves-file corner from test_report.cpp, on the
  // frontier path: the tool constructs the file-backed writer before
  // validation runs, so a bad refine spec must abort before the lazy
  // open ever truncates a previously archived frontier.
  const std::string path =
      ::testing::TempDir() + "frontier_preserved.csv";
  write_text(path, "precious archived frontier\n");

  SweepGrid grid = parse_grid("k=1;us=1;lambda=5");  // 1 coarse value: aborts
  SweepOptions options;
  options.horizon = 5;
  RefineOptions refine;
  refine.axis = "lambda";
  refine.tol = 0.1;
  EXPECT_DEATH(
      {
        ReportWriter writer(path, ReportFormat::kCsv,
                            frontier_columns(options));
        run_frontier_stream(grid, options, refine, writer);
        writer.finish();
      },
      ">= 2 coarse values");

  // The child aborted mid-validation; the parent's file is intact.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[64] = {};
  const std::size_t got = std::fread(buffer, 1, sizeof(buffer), file);
  std::fclose(file);
  EXPECT_EQ(std::string(buffer, got), "precious archived frontier\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p2p::engine
