// Deterministic mutational fuzzing of the corpus readers' fail-fast
// contract: every byte string either ingests, or aborts through
// P2P_ASSERT with a message that echoes where the input went wrong.
// Never a crash, a hang, a sanitizer report or a silent exit.
//
// Seeds are the committed grid archives under experiments/ (dense,
// mixed-arrival, policy and adaptive), each as archived (CSV) and
// rendered as a report JSON of the same rows; fixed-seed mutations
// flip, delete and insert bytes, duplicate lines and truncate. Each
// mutant runs the p2p_phase dispatch (report reader -> build_phase_grid
// / build_box_grid) in a forked child under an alarm, at 1 and 4 decode
// threads with batches small enough that every seed spans several —
// and both thread counts must fail with the same message. The committed
// summary JSON archives are mutated the same way through validate_json.
// Needs only fork/waitpid (no libFuzzer); the budget is a fixed mutant
// count, so a run is reproducible and takes a few seconds.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/phase_diagram.hpp"
#include "engine/csv_reader.hpp"
#include "rand/rng.hpp"
#include "report_helpers.hpp"
#include "sim/event_log.hpp"

namespace p2p {
namespace {

constexpr unsigned kChildTimeoutS = 20;
constexpr int kMutantsPerSeed = 200;
/// Batch size for the fuzzed reader: a few KiB, so even the smallest
/// seed decodes as several batches on the pool.
constexpr std::size_t kFuzzBatchBytes = 2048;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read seed " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// What a child run did: exited 0, or aborted with `message` (the
/// P2P_ASSERT payload after its expression and location lines).
struct Outcome {
  bool ok = false;
  std::string message;
  std::string failure;  // non-empty: the run broke the contract
};

/// The archive `name` as committed (CSV), or its rows rendered as the
/// report JSON a --format json sweep would have written.
std::string seed_text(const std::string& name, engine::ReportFormat format) {
  const std::string csv = slurp(std::string(P2P_EXPERIMENTS_DIR) + "/" + name);
  if (format == engine::ReportFormat::kCsv) return csv;
  return engine::render_table(engine::read_report(csv), format);
}

/// The p2p_phase dispatch: one reader for both dialects, box reports to
/// the box builder, grids to the batched ingest.
void ingest(const std::string& input, int threads) {
  engine::CsvReader reader = engine::CsvReader::from_text(input);
  reader.set_batch_bytes(kFuzzBatchBytes);
  if (engine::validate_report_schema(reader.columns()).has_boxes) {
    analysis::build_box_grid(reader);
  } else {
    analysis::build_phase_grid(reader, "", "", threads);
  }
}

/// Runs `body` in a forked child under an alarm and classifies how it
/// ended.
Outcome run_child(const std::function<void()>& body) {
  int pipe_fd[2];
  if (pipe(pipe_fd) != 0) return {false, "", "pipe() failed"};
  const pid_t pid = fork();
  if (pid < 0) return {false, "", "fork() failed"};
  if (pid == 0) {
    close(pipe_fd[0]);
    dup2(pipe_fd[1], STDERR_FILENO);
    alarm(kChildTimeoutS);
    body();
    _exit(0);
  }
  close(pipe_fd[1]);
  std::string err;
  char buf[4096];
  ssize_t got = 0;
  while ((got = read(pipe_fd[0], buf, sizeof(buf))) > 0) {
    err.append(buf, static_cast<std::size_t>(got));
  }
  close(pipe_fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);

  Outcome out;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    out.ok = true;
    return out;
  }
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGALRM) {
    out.failure = "timed out";
    return out;
  }
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGABRT) {
    out.failure = "died outside P2P_ASSERT (status " +
                  std::to_string(status) + "): " + err;
    return out;
  }
  // P2P_ASSERT prints "P2P_ASSERT failed: <expr>\n  at <file>:<line>\n
  // <message>\n".
  const std::size_t at = err.find("P2P_ASSERT failed: ");
  const std::size_t loc = err.find("\n  at ", at);
  const std::size_t msg = err.find("\n  ", loc + 1);
  if (at == std::string::npos || loc == std::string::npos ||
      msg == std::string::npos) {
    out.failure = "SIGABRT without a P2P_ASSERT message: " + err;
    return out;
  }
  out.message = err.substr(msg + 3);
  // Every abort must locate the fault: a row, line or byte for a bad
  // record, a column for a bad header, or the axis/cell/tiling fact a
  // whole-grid check rejected.
  static const char* const kEchoes[] = {
      "row",  "line ",  "byte",  "column",    "tile",
      "axis", "varies", "cell ", "piece beyond"};
  bool echoes = false;
  for (const char* e : kEchoes) {
    echoes = echoes || out.message.find(e) != std::string::npos;
  }
  if (!echoes) out.failure = "abort message locates nothing: " + out.message;
  return out;
}

Outcome run_ingest(const std::string& input, int threads) {
  return run_child([&] { ingest(input, threads); });
}

/// Bytes the mutator inserts: the CSV dialect's structural bytes, and
/// the JSON grammar's.
constexpr std::string_view kCsvInserts = "\",\n";
constexpr std::string_view kJsonInserts = "\",\n{}[]:\\";

/// One fixed-seed mutation of `text`: byte flip, byte delete, line
/// duplicate, an inserted byte of `inserts`, or a truncation.
void mutate(std::string& text, Rng& rng, std::string_view inserts) {
  if (text.empty()) {
    text.push_back('"');
    return;
  }
  const std::size_t at = rng.uniform_int(text.size());
  switch (rng.uniform_int(std::uint64_t{6})) {
    case 0:
      text[at] = static_cast<char>(text[at] ^
                                   (1 << rng.uniform_int(std::uint64_t{8})));
      break;
    case 1:
      text.erase(at, 1);
      break;
    case 2: {
      const std::size_t begin = text.rfind('\n', at);
      const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
      const std::size_t end = text.find('\n', at);
      const std::size_t stop = end == std::string::npos ? text.size() : end + 1;
      text.insert(stop, text.substr(start, stop - start));
      break;
    }
    case 3:
      text.insert(at, 1, inserts[rng.uniform_int(inserts.size())]);
      break;
    case 4:
      text.resize(at);
      break;
    default:  // a flip to an arbitrary byte, NUL and high bytes included
      text[at] = static_cast<char>(rng.uniform_int(std::uint64_t{256}));
      break;
  }
}

/// `count` fixed-seed mutants of `seed`, each 1-3 edits.
std::vector<std::string> mutants(const std::string& seed,
                                 std::string_view inserts,
                                 int count = kMutantsPerSeed) {
  Rng rng(0x5eed0000u + seed.size());
  std::vector<std::string> out;
  for (int m = 0; m < count; ++m) {
    std::string input = seed;
    const int edits = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{3}));
    for (int e = 0; e < edits; ++e) mutate(input, rng, inserts);
    out.push_back(std::move(input));
  }
  return out;
}

/// Fuzzes the ingest of `seed`, which must ingest cleanly at both
/// thread counts, or abort with `clean_abort` when that is non-empty.
void fuzz_ingest(const std::string& seed, std::string_view inserts,
                 const std::string& clean_abort = "") {
  ASSERT_FALSE(seed.empty());
  for (const int threads : {1, 4}) {
    const Outcome clean = run_ingest(seed, threads);
    ASSERT_TRUE(clean.failure.empty()) << clean.failure;
    ASSERT_EQ(clean.ok, clean_abort.empty()) << clean.message;
    EXPECT_EQ(clean.message.substr(0, clean_abort.size()), clean_abort);
  }
  int aborted = 0;
  const std::vector<std::string> inputs = mutants(seed, inserts);
  for (std::size_t m = 0; m < inputs.size(); ++m) {
    const Outcome one = run_ingest(inputs[m], 1);
    const Outcome four = run_ingest(inputs[m], 4);
    EXPECT_TRUE(one.failure.empty()) << "mutant " << m << ": " << one.failure;
    EXPECT_TRUE(four.failure.empty())
        << "mutant " << m << ": " << four.failure;
    // The earliest fault wins at any thread count.
    EXPECT_EQ(one.ok, four.ok) << "mutant " << m;
    EXPECT_EQ(one.message, four.message) << "mutant " << m;
    aborted += one.ok ? 0 : 1;
  }
  // Mutations that land in a label or a trailing digit can stay valid;
  // most must not.
  EXPECT_GT(aborted, kMutantsPerSeed / 2);
}

class ReaderFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(ReaderFuzz, EveryMutantIngestsOrAbortsEchoingTheFault) {
  fuzz_ingest(seed_text(GetParam(), engine::ReportFormat::kCsv), kCsvInserts);
}

TEST_P(ReaderFuzz, EveryJsonMutantIngestsOrAbortsEchoingTheFault) {
  // JSON spells every non-finite cell null, which reads back as nan: the
  // mixed-arrival archive's gamma=inf rows cannot ingest from JSON.
  const bool gamma_inf = std::string(GetParam()) == "mix_example2_region.csv";
  fuzz_ingest(seed_text(GetParam(), engine::ReportFormat::kJson), kJsonInserts,
              gamma_inf ? "gamma must be positive (grid report row 0)" : "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReaderFuzz,
                         ::testing::Values("region_theory.csv",
                                           "mix_example2_region.csv",
                                           "policy_rarest_region.csv",
                                           "region_adaptive.csv"));

class SummaryFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(SummaryFuzz, EveryMutantValidatesOrAbortsEchoingTheByte) {
  const std::string seed =
      slurp(std::string(P2P_EXPERIMENTS_DIR) + "/" + GetParam());
  ASSERT_FALSE(seed.empty());
  const auto validate = [](const std::string& text) {
    return run_child([&] { engine::validate_json(text, "summary JSON"); });
  };
  const Outcome clean = validate(seed);
  ASSERT_TRUE(clean.ok) << clean.failure << clean.message;
  int aborted = 0;
  const std::vector<std::string> inputs = mutants(seed, kJsonInserts);
  for (std::size_t m = 0; m < inputs.size(); ++m) {
    const Outcome one = validate(inputs[m]);
    EXPECT_TRUE(one.failure.empty()) << "mutant " << m << ": " << one.failure;
    if (!one.ok) {
      EXPECT_NE(one.message.find("summary JSON at byte "), std::string::npos)
          << "mutant " << m << ": " << one.message;
    }
    aborted += one.ok ? 0 : 1;
  }
  EXPECT_GT(aborted, kMutantsPerSeed / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SummaryFuzz,
    ::testing::Values("mix_adaptive_volume_summary.json",
                      "phase_mix_example2_summary.json",
                      "phase_policy_rarest_summary.json",
                      "phase_region_adaptive_summary.json",
                      "phase_region_theory_summary.json",
                      "region_adaptive_summary.json"));

/// Event-log lines: the committed K = 3 trace, line by line as archived
/// (CSV) and as append_event_json renders each event. The seeds are
/// evenly spaced lines, so every event kind is among them.
constexpr int kEventPieces = 3;
constexpr std::size_t kEventSeedLines = 16;
constexpr int kMutantsPerEventLine = 32;
/// Both dialects' structural bytes; no newline, which the line reader
/// consumes before the parser sees a line.
constexpr std::string_view kEventInserts = ",\"{}:. e-";

std::vector<std::string> event_seed_lines(bool json) {
  std::istringstream in(
      slurp(std::string(P2P_EXPERIMENTS_DIR) + "/monitor_events.csv"));
  std::vector<std::string> lines;
  std::string line;
  std::getline(in, line);  // the header
  while (std::getline(in, line)) lines.push_back(line);
  EXPECT_GE(lines.size(), kEventSeedLines);
  std::vector<std::string> seeds;
  for (std::size_t i = 0; i < kEventSeedLines; ++i) {
    std::string seed = lines[i * lines.size() / kEventSeedLines];
    if (json) {
      const SwarmEvent event = parse_event_line(seed, i + 2, kEventPieces);
      seed.clear();
      append_event_json(seed, event);
      seed.pop_back();  // the '\n'
    }
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

/// Every mutant of every seed line parses, or aborts naming the line
/// number and echoing the line verbatim.
void fuzz_event_lines(bool json) {
  int aborted = 0;
  for (const std::string& seed : event_seed_lines(json)) {
    const auto parse = [](const std::string& line) {
      return run_child([&] { parse_event_line(line, 7, kEventPieces); });
    };
    const Outcome clean = parse(seed);
    ASSERT_TRUE(clean.ok) << seed << ": " << clean.failure << clean.message;
    const std::vector<std::string> inputs =
        mutants(seed, kEventInserts, kMutantsPerEventLine);
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      const Outcome one = parse(inputs[m]);
      EXPECT_TRUE(one.failure.empty())
          << seed << " mutant " << m << ": " << one.failure;
      if (!one.ok) {
        EXPECT_EQ(one.message.rfind("event log line 7: ", 0), 0u)
            << seed << " mutant " << m << ": " << one.message;
        EXPECT_NE(one.message.find("(got \"" + inputs[m] + "\")"),
                  std::string::npos)
            << seed << " mutant " << m << ": " << one.message;
      }
      aborted += one.ok ? 0 : 1;
    }
  }
  // A flipped digit in a timestamp still parses; most edits must not.
  EXPECT_GT(aborted, static_cast<int>(kEventSeedLines) *
                         kMutantsPerEventLine / 2);
}

TEST(EventLineFuzz, EveryCsvMutantParsesOrAbortsEchoingTheLine) {
  fuzz_event_lines(false);
}

TEST(EventLineFuzz, EveryJsonMutantParsesOrAbortsEchoingTheLine) {
  fuzz_event_lines(true);
}

}  // namespace
}  // namespace p2p
