// WeightedIndex: a binary-indexed (Fenwick) tree over a fixed number of
// slots that supports O(log n) weight updates and O(log n) sampling of an
// index proportionally to its weight.
//
// This is the event-selection structure of the type-count simulator: one
// slot per PieceSet type, weight = peer count of that type, so drawing a
// uniform random peer is a single descending prefix search instead of an
// O(2^K) linear scan over the types. The tree is templated on
// the weight type:
//
//   * integral weights (the simulator) sample through Rng::uniform_int, so
//     selection is exact — no floating-point drift can accumulate under
//     millions of +-1 count updates;
//   * floating weights sample through Rng::uniform() * total and mirror
//     Rng::discrete's distribution (see tests/test_weighted_index.cpp).
//
// Weights must stay nonnegative; sampling requires a positive total.
#pragma once

#include <bit>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace p2p {

template <typename Weight>
class WeightedIndex {
  static_assert(std::is_arithmetic_v<Weight>);

 public:
  /// `size` slots, all weights zero.
  explicit WeightedIndex(std::size_t size)
      : size_(size),
        round_(std::bit_ceil(size | 1)),
        tree_(round_ + 1, Weight{0}),
        weight_(size, Weight{0}) {
    P2P_ASSERT(size >= 1);
  }

  /// Slots initialised from `weights`: O(n) bulk build — leaves first,
  /// then one pass folding each node into its parent — instead of n
  /// O(log n) Fenwick walks. Produces the exact tree the incremental
  /// update() path builds (pinned in test_weighted_index.cpp).
  explicit WeightedIndex(std::span<const Weight> weights)
      : WeightedIndex(weights.size()) {
    for (std::size_t i = 0; i < weights.size(); ++i) {
      P2P_ASSERT_MSG(weights[i] >= Weight{0},
                     "WeightedIndex weights must stay nonnegative");
      weight_[i] = weights[i];
      tree_[i + 1] = weights[i];
      total_ += weights[i];
    }
    for (std::size_t j = 1; j <= round_; ++j) {
      const std::size_t parent = j + (j & (~j + 1));
      if (parent <= round_) tree_[parent] += tree_[j];
    }
  }

  std::size_t size() const { return size_; }
  Weight total() const { return total_; }
  Weight weight(std::size_t i) const {
    P2P_ASSERT(i < size_);
    return weight_[i];
  }

  /// Adds `delta` to slot i's weight. The result must stay nonnegative.
  void update(std::size_t i, Weight delta) {
    P2P_ASSERT(i < size_);
    weight_[i] += delta;
    P2P_ASSERT_MSG(weight_[i] >= Weight{0},
                   "WeightedIndex weights must stay nonnegative");
    total_ += delta;
    for (std::size_t j = i + 1; j <= round_; j += j & (~j + 1)) {
      tree_[j] += delta;
    }
  }

  /// Sets slot i's weight to `w` (>= 0).
  void set(std::size_t i, Weight w) {
    P2P_ASSERT(w >= Weight{0});
    update(i, w - weight(i));
  }

  /// The smallest index i with prefix_sum(i) > r, i.e. the slot a dart at
  /// cumulative position `r` in [0, total()) lands in. Zero-weight slots
  /// are never returned. Requires 0 <= r < total().
  std::size_t find(Weight r) const {
    P2P_ASSERT(r >= Weight{0} && r < total_);
    std::size_t pos = 0;
    for (std::size_t step = round_; step > 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= round_ && tree_[next] <= r) {
        r -= tree_[next];
        pos = next;
      }
    }
    // pos is now the count of slots wholly below the dart. Guard the
    // floating-point edge where rounding pushes the dart past the last
    // positive slot.
    while (pos < size_ && weight_[pos] <= Weight{0}) ++pos;
    if (pos >= size_) {
      pos = size_;
      while (pos-- > 0) {
        if (weight_[pos] > Weight{0}) break;
      }
    }
    return pos;
  }

  /// Samples an index proportionally to its weight. Requires total() > 0.
  std::size_t sample(Rng& rng) const {
    P2P_ASSERT_MSG(total_ > Weight{0},
                   "WeightedIndex::sample requires a positive total weight");
    if constexpr (std::is_integral_v<Weight>) {
      return find(static_cast<Weight>(
          rng.uniform_int(static_cast<std::uint64_t>(total_))));
    } else {
      return find(static_cast<Weight>(rng.uniform() * total_));
    }
  }

 private:
  std::size_t size_;
  std::size_t round_;  // smallest power of two >= size
  std::vector<Weight> tree_;
  std::vector<Weight> weight_;
  Weight total_ = Weight{0};
};

}  // namespace p2p
