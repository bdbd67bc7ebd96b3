#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace p2p::engine {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, MoreThreadsThanItems) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(50, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 20 * 50);
}

TEST(ThreadPool, ChunkedRunsEveryIndexExactlyOnce) {
  // The chunk size changes how indices are claimed, never which indices
  // run: every chunk value (including auto = 0 and oversized) must cover
  // [0, n) exactly once.
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{7},
                                  std::size_t{64}, std::size_t{5000}}) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, chunk);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "chunk " << chunk;
  }
}

TEST(ThreadPool, AutoChunkHeuristic) {
  // ~64 chunks per thread, floored at 1 so tiny jobs still parallelize,
  // capped at 4096 so streaming rings sized from the chunk stay bounded
  // no matter how large the job grows.
  EXPECT_EQ(ThreadPool::auto_chunk(1000000, 8), 1000000u / (64 * 8));
  EXPECT_EQ(ThreadPool::auto_chunk(100, 8), 1u);
  EXPECT_EQ(ThreadPool::auto_chunk(0, 1), 1u);
  EXPECT_EQ(ThreadPool::auto_chunk(1000000000, 1), 4096u);
}

TEST(ThreadPool, StreamingReportsMonotonicPrefixesOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(500);
  std::vector<std::size_t> prefixes;
  pool.parallel_for_streaming_blocks(
      hits.size(), /*chunk=*/7, /*window=*/64,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      [&](std::size_t prefix) {
        // The consumer callback always runs on the calling thread, so a
        // sink needs no locking of its own.
        ASSERT_EQ(std::this_thread::get_id(), caller);
        // Every item inside the reported prefix must already have run.
        for (std::size_t i = 0; i < prefix; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "prefix " << prefix;
        }
        prefixes.push_back(prefix);
      });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  ASSERT_FALSE(prefixes.empty());
  for (std::size_t i = 1; i < prefixes.size(); ++i) {
    ASSERT_LT(prefixes[i - 1], prefixes[i]);
  }
  EXPECT_EQ(prefixes.back(), hits.size());
}

TEST(ThreadPool, StreamingWindowBoundsInFlightItems) {
  // With window W, no item may start more than W past the last consumed
  // prefix — that bound is what lets a consumer ring-buffer results.
  ThreadPool pool(4);
  constexpr std::size_t kWindow = 32;
  std::atomic<std::size_t> consumed{0};
  std::atomic<bool> violated{false};
  pool.parallel_for_streaming_blocks(
      2000, /*chunk=*/4, kWindow,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (i >= consumed.load() + kWindow) violated.store(true);
        }
      },
      [&](std::size_t prefix) { consumed.store(prefix); });
  EXPECT_FALSE(violated.load());
}

TEST(ThreadPool, StreamingSingleThreadAndSingleChunk) {
  // Degenerate corners: inline execution, and a chunk swallowing the
  // whole job (one claim, one prefix report).
  ThreadPool pool(1);
  std::size_t total = 0;
  std::vector<std::size_t> prefixes;
  pool.parallel_for_streaming_blocks(
      100, /*chunk=*/1000, /*window=*/8,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) total += i;
      },
      [&](std::size_t prefix) { prefixes.push_back(prefix); });
  EXPECT_EQ(total, 99u * 100u / 2);
  EXPECT_EQ(prefixes, std::vector<std::size_t>({100}));
}

TEST(ThreadPool, StreamingZeroItemsReportsNothing) {
  ThreadPool pool(2);
  pool.parallel_for_streaming_blocks(
      0, 1, 8, [](std::size_t, std::size_t) { FAIL() << "no items to run"; },
      [](std::size_t) { FAIL() << "no prefix to report"; });
}

TEST(ThreadPool, StreamingReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> runs{0};
    std::size_t last_prefix = 0;
    pool.parallel_for_streaming_blocks(
        200, /*chunk=*/3, /*window=*/30,
        [&](std::size_t begin, std::size_t end) {
          runs.fetch_add(static_cast<int>(end - begin));
        },
        [&](std::size_t prefix) { last_prefix = prefix; });
    ASSERT_EQ(runs.load(), 200);
    ASSERT_EQ(last_prefix, 200u);
  }
}

TEST(ThreadPool, StreamingBlocksCoverChunkAlignedRangesExactlyOnce) {
  // The block-range entry point hands workers whole claimed chunks:
  // every block must be [k*chunk, min((k+1)*chunk, n)) for some k, the
  // blocks must tile [0, n) exactly once, and prefixes still only cover
  // finished blocks. This is the contract the sweep engine's
  // chunk-batched arenas (one arena per claimed block) are built on.
  ThreadPool pool(4);
  constexpr std::size_t kN = 503;  // deliberately not a chunk multiple
  constexpr std::size_t kChunk = 7;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> misaligned{false};
  std::size_t last_prefix = 0;
  pool.parallel_for_streaming_blocks(
      kN, kChunk, /*window=*/56,
      [&](std::size_t begin, std::size_t end) {
        if (begin % kChunk != 0 ||
            (end != kN && end - begin != kChunk) || end <= begin) {
          misaligned.store(true);
        }
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      [&](std::size_t prefix) {
        ASSERT_GT(prefix, last_prefix);
        for (std::size_t i = 0; i < prefix; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "prefix " << prefix;
        }
        last_prefix = prefix;
      });
  EXPECT_FALSE(misaligned.load());
  EXPECT_EQ(last_prefix, kN);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolDeath, RejectsZeroThreads) {
  EXPECT_DEATH(ThreadPool(0), ">= 1 thread");
  // auto_chunk shares the contract: 64 * 0 threads in the divisor would
  // be a SIGFPE, not a readable message.
  EXPECT_DEATH(ThreadPool::auto_chunk(100, 0), ">= 1 thread");
}

TEST(ThreadPoolDeath, ThrowingFnAbortsWithTheItemIndex) {
  // The documented contract is "fn must not throw": an exception cannot
  // be rejoined with its item, and unwinding through the pool would
  // std::terminate inside libstdc++. The pool must turn it into an
  // assert that names the index instead.
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.parallel_for(10, [](std::size_t i) {
          if (i == 7) throw std::runtime_error("boom");
        });
      },
      "threw at index 7.*boom");
}

TEST(ThreadPoolDeath, ThrowingBlockFnAbortsWithTheRange) {
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.parallel_for_streaming_blocks(
            10, /*chunk=*/4, /*window=*/8,
            [](std::size_t begin, std::size_t) {
              if (begin == 4) throw std::runtime_error("boom");
            },
            [](std::size_t) {});
      },
      "block fn threw in range \\[4, 8\\).*boom");
}

}  // namespace
}  // namespace p2p::engine
