// Deterministic mutational fuzzing of the corpus reader's fail-fast
// contract: every byte string either ingests, or aborts through
// P2P_ASSERT with a message that echoes where the input went wrong.
// Never a crash, a hang, a sanitizer report or a silent exit.
//
// Seeds are the committed grid archives under experiments/ (dense,
// mixed-arrival, policy and adaptive); fixed-seed mutations flip,
// delete and insert bytes, duplicate lines and truncate. Each mutant
// runs CsvReader -> build_phase_grid / build_box_grid (the p2p_phase
// dispatch) in a forked child under an alarm, at 1 and 4 decode
// threads with batches small enough that every seed spans several —
// and both thread counts must fail with the same message. Needs only
// fork/waitpid (no libFuzzer); the budget is a fixed mutant count, so
// a run is reproducible and takes a few seconds.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/phase_diagram.hpp"
#include "engine/csv_reader.hpp"
#include "rand/rng.hpp"

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

void ingest(const std::string& input, int threads) {
  engine::CsvReader reader = engine::CsvReader::from_text(input);
  reader.set_batch_bytes(kFuzzBatchBytes);
  if (engine::validate_report_schema(reader.columns()).has_boxes) {
    analysis::build_box_grid(reader);
  } else {
    analysis::build_phase_grid(reader, "", "", threads);
  }
}

Outcome run_child(const std::string& input, int threads) {
  int pipe_fd[2];
  if (pipe(pipe_fd) != 0) return {false, "", "pipe() failed"};
  const pid_t pid = fork();
  if (pid < 0) return {false, "", "fork() failed"};
  if (pid == 0) {
    close(pipe_fd[0]);
    dup2(pipe_fd[1], STDERR_FILENO);
    alarm(kChildTimeoutS);
    ingest(input, threads);
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

/// One fixed-seed mutation of `text`: byte flip, byte delete, line
/// duplicate, an inserted '"', ',' or '\n', or a truncation.
void mutate(std::string& text, Rng& rng) {
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
    case 3: {
      static const char kInserts[] = {'"', ',', '\n'};
      text.insert(at, 1, kInserts[rng.uniform_int(std::uint64_t{3})]);
      break;
    }
    case 4:
      text.resize(at);
      break;
    default:  // a flip to an arbitrary byte, NUL and high bytes included
      text[at] = static_cast<char>(rng.uniform_int(std::uint64_t{256}));
      break;
  }
}

class ReaderFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(ReaderFuzz, EveryMutantIngestsOrAbortsEchoingTheFault) {
  const std::string seed =
      slurp(std::string(P2P_EXPERIMENTS_DIR) + "/" + GetParam());
  ASSERT_FALSE(seed.empty());
  // The unmutated seed must ingest cleanly at both thread counts.
  for (const int threads : {1, 4}) {
    const Outcome clean = run_child(seed, threads);
    ASSERT_TRUE(clean.ok) << clean.failure << clean.message;
  }
  Rng rng(0x5eed0000u + seed.size());
  int aborted = 0;
  for (int m = 0; m < kMutantsPerSeed; ++m) {
    std::string input = seed;
    const int edits = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{3}));
    for (int e = 0; e < edits; ++e) mutate(input, rng);
    const Outcome one = run_child(input, 1);
    const Outcome four = run_child(input, 4);
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

INSTANTIATE_TEST_SUITE_P(Seeds, ReaderFuzz,
                         ::testing::Values("region_theory.csv",
                                           "mix_example2_region.csv",
                                           "policy_rarest_region.csv",
                                           "region_adaptive.csv"));

}  // namespace
}  // namespace p2p
