// Fixed-size thread pool for embarrassingly parallel sweeps.
//
// Deliberately work-stealing-free: parallel_for hands out contiguous
// chunks of indices from a shared cursor, so every index runs exactly
// once on some thread. A chunk is claimed under one mutex acquisition —
// for coarse cells (a whole simulation) chunk = 1 is already negligible
// next to the work, while closed-form-only grids with millions of tiny
// cells need chunked claiming to keep the claim mutex off the profile.
// Determinism is the caller's contract: a cell's result may depend only
// on its index, never on which thread ran it, in what order, or in which
// chunk — then output is byte-identical for any thread count and any
// chunk size.
//
// parallel_for_streaming_blocks hands each claimed chunk to the caller's
// function as one index range, reports the contiguous completed prefix
// to the calling thread between chunks, and lets claims run only a
// bounded window past the prefix the caller has consumed. It is the
// engine of run_ordered_blocks (engine/cell_eval.hpp), whose ring of
// block slots relies on exactly that window for its reuse safety.
//
// The calling thread participates in both entry points, so ThreadPool(n)
// uses exactly n OS threads (n-1 workers + the caller) and ThreadPool(1)
// runs everything inline with no synchronization surprises.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace p2p::engine {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    P2P_ASSERT_MSG(num_threads >= 1, "thread pool needs >= 1 thread");
    workers_.reserve(static_cast<std::size_t>(num_threads - 1));
    for (int i = 0; i + 1 < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Total OS threads used, including the caller.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Default chunk size for an n-item job on `threads` threads: large
  /// enough that claim overhead vanishes, small enough (~64 chunks per
  /// thread) that the tail imbalance stays a fraction of a percent. The
  /// 4096 cap keeps the chunk — and everything sized from it, like the
  /// streaming consumers' O(chunk * threads) rings — bounded as n grows:
  /// past ~4k items per claim the mutex is already off the profile.
  static std::size_t auto_chunk(std::size_t n, int threads) {
    // Same contract as the constructor — and a divide by 64*0 below
    // would be a SIGFPE instead of a readable message.
    P2P_ASSERT_MSG(threads >= 1, "thread pool needs >= 1 thread");
    return std::max<std::size_t>(
        1, std::min<std::size_t>(
               4096, n / (64 * static_cast<std::size_t>(threads))));
  }

  /// A thread-count argument where 0 means every hardware core (at
  /// least one); the read-side analyses (build_phase_grid,
  /// verdict_agreement, write_ppm) take their counts this way.
  static int all_cores_if_zero(int threads) {
    return threads != 0 ? threads
                        : static_cast<int>(std::max(
                              1u, std::thread::hardware_concurrency()));
  }

  /// Runs fn(i) for every i in [0, n), distributed over the pool in
  /// chunks of `chunk` consecutive indices (0 = auto_chunk); blocks until
  /// all n calls have returned. fn must not throw — a throw is caught and
  /// turned into a P2P_ASSERT naming the index, instead of a silent
  /// std::terminate deep in libstdc++. Not reentrant (no parallel_for
  /// from inside fn) and not thread-safe: one job at a time.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t chunk = 1) {
    const BlockFn block = item_block(fn);
    run_job(n, chunk, /*window=*/0, block, nullptr);
  }

  /// Like parallel_for, but each claimed chunk (of `chunk` indices, 0 =
  /// auto_chunk) is handed to block_fn as one half-open index range
  /// [begin, end), and completion streams to the caller: whenever the
  /// contiguous completed prefix of [0, n) grows, on_prefix(p) runs on
  /// the CALLING thread with the new prefix length (nondecreasing,
  /// finally n). Claims never run more than `window` items (at least one
  /// chunk; 0 = unbounded) past the last prefix consumed, so a consumer
  /// that drains results inside on_prefix bounds live results to
  /// O(window). A worker that processes a whole contiguous block can
  /// hoist per-chunk setup — grid odometers, cached axis values, arena
  /// reservations — out of the per-item loop, which is what lets the
  /// sweep engine render rows at memcpy speed. block_fn must not throw;
  /// same reentrancy contract as parallel_for.
  void parallel_for_streaming_blocks(
      std::size_t n, std::size_t chunk, std::size_t window,
      const std::function<void(std::size_t, std::size_t)>& block_fn,
      const std::function<void(std::size_t)>& on_prefix) {
    const BlockFn block = guarded_block(block_fn);
    run_job(n, chunk, window, block, &on_prefix);
  }

 private:
  /// Jobs run chunk-at-a-time internally; parallel_for wraps its
  /// per-item fn in a range loop.
  using BlockFn = std::function<void(std::size_t, std::size_t)>;

  /// The per-item loop with the index-naming throw guard parallel_for
  /// documents.
  static BlockFn item_block(const std::function<void(std::size_t)>& fn) {
    return [&fn](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        // fn must not throw: an exception cannot be matched back to its
        // item by the caller, and unwinding through the pool would
        // std::terminate inside libstdc++ with no index in sight. Turn
        // it into an assert that names the item.
        try {
          fn(i);
        } catch (const std::exception& e) {
          P2P_ASSERT_MSG(false, "parallel_for fn threw at index " +
                                    std::to_string(i) + ": " + e.what());
        } catch (...) {
          P2P_ASSERT_MSG(false, "parallel_for fn threw at index " +
                                    std::to_string(i));
        }
      }
    };
  }

  /// The range-naming throw guard for the block API.
  static BlockFn guarded_block(const BlockFn& fn) {
    return [&fn](std::size_t begin, std::size_t end) {
      // Appended piece by piece: GCC 12 flags `"[" + std::string` with a
      // false -Wrestrict overlap warning.
      const auto range = [begin, end] {
        std::string r = "[";
        r += std::to_string(begin);
        r += ", ";
        r += std::to_string(end);
        r += ')';
        return r;
      };
      try {
        fn(begin, end);
      } catch (const std::exception& e) {
        P2P_ASSERT_MSG(false, "parallel_for block fn threw in range " +
                                  range() + ": " + e.what());
      } catch (...) {
        P2P_ASSERT_MSG(false,
                       "parallel_for block fn threw in range " + range());
      }
    };
  }

  void run_job(std::size_t n, std::size_t chunk, std::size_t window,
               const BlockFn& fn,
               const std::function<void(std::size_t)>* on_prefix) {
    if (n == 0) return;
    if (chunk == 0) chunk = auto_chunk(n, size());
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      P2P_ASSERT_MSG(job_fn_ == nullptr,
                     "parallel_for is not reentrant: one job at a time");
      job_fn_ = &fn;
      job_n_ = n;
      chunk_ = chunk;
      next_ = 0;
      completed_ = 0;
      consumed_chunks_ = 0;
      streaming_ = on_prefix != nullptr;
      window_chunks_ = (on_prefix != nullptr && window != 0)
                           ? std::max<std::size_t>(1, window / chunk)
                           : 0;
      chunk_done_.assign(num_chunks, 0);
    }
    job_cv_.notify_all();

    // The caller participates: claim and run chunks, draining the
    // completed prefix (streaming mode) between claims.
    while (true) {
      const bool claimed = run_one_chunk();
      if (on_prefix != nullptr) drain_prefix(*on_prefix);
      if (claimed) continue;
      std::unique_lock<std::mutex> lock(mutex_);
      if (completed_ == job_n_) break;
      if (on_prefix == nullptr) {
        // Workers wake the caller only when the last increment lands —
        // intermediate completions cannot satisfy this wait.
        done_cv_.wait(lock, [this] { return completed_ == job_n_; });
        break;
      }
      // Streaming and window-stalled (or out of claims): wait for the
      // head chunk — the one blocking the prefix — or the whole job.
      done_cv_.wait(lock, [this] {
        return completed_ == job_n_ ||
               (consumed_chunks_ < chunk_done_.size() &&
                chunk_done_[consumed_chunks_] != 0);
      });
    }
    // With all chunks complete the prefix is all of [0, n).
    if (on_prefix != nullptr) drain_prefix(*on_prefix);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_fn_ = nullptr;
    }
  }

  void worker_loop() {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        job_cv_.wait(lock, [this] { return stop_ || claimable_locked(); });
        if (stop_) return;
      }
      run_one_chunk();
    }
  }

  /// First index no chunk may claim past: the consumed prefix plus the
  /// window (streaming), or the job end (unbounded).
  std::size_t claim_limit_locked() const {
    if (window_chunks_ == 0) return job_n_;
    const std::size_t limit_chunks = consumed_chunks_ + window_chunks_;
    if (limit_chunks >= chunk_done_.size()) return job_n_;
    return limit_chunks * chunk_;
  }

  bool claimable_locked() const {
    return job_fn_ != nullptr && next_ < claim_limit_locked();
  }

  /// Claims the next chunk and runs it unlocked; returns false when
  /// nothing is claimable (job exhausted or window-stalled). The caller
  /// is woken once per chunk that can matter to it, never per item.
  bool run_one_chunk() {
    const BlockFn* fn = nullptr;
    std::size_t begin = 0, end = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!claimable_locked()) return false;
      fn = job_fn_;
      begin = next_;
      end = std::min(begin + chunk_, job_n_);
      next_ = end;
    }
    // The throw guards (item_block / guarded_block) are baked into fn by
    // the entry points, so this call never unwinds.
    (*fn)(begin, end);
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      completed_ += end - begin;
      const std::size_t chunk_index = begin / chunk_;
      chunk_done_[chunk_index] = 1;
      // Only two completions can satisfy the caller's waits: the final
      // one, and (streaming) the head chunk that gates the prefix.
      notify = completed_ == job_n_ ||
               (streaming_ && chunk_index == consumed_chunks_);
    }
    if (notify) done_cv_.notify_one();
    return true;
  }

  /// Reports any newly completed prefix to on_prefix (unlocked — the
  /// consumer typically does file I/O), then opens the claim window past
  /// the consumed chunks. Runs only on the calling thread.
  void drain_prefix(const std::function<void(std::size_t)>& on_prefix) {
    while (true) {
      std::size_t new_consumed = 0;
      std::size_t prefix_items = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        new_consumed = consumed_chunks_;
        while (new_consumed < chunk_done_.size() &&
               chunk_done_[new_consumed] != 0) {
          ++new_consumed;
        }
        if (new_consumed == consumed_chunks_) return;
        prefix_items = std::min(job_n_, new_consumed * chunk_);
      }
      on_prefix(prefix_items);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        // Advanced only after the consumer returns: a claim window past
        // unconsumed results would let workers overwrite a ring slot the
        // consumer is still reading.
        consumed_chunks_ = new_consumed;
      }
      job_cv_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const BlockFn* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t chunk_ = 1;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  /// Chunks whose results the streaming consumer has taken; claims may
  /// run at most window_chunks_ past this.
  std::size_t consumed_chunks_ = 0;
  std::size_t window_chunks_ = 0;
  std::vector<std::uint8_t> chunk_done_;
  bool streaming_ = false;
  bool stop_ = false;
};

}  // namespace p2p::engine
