// TypeCountState: the aggregate state vector x = (x_C : C subseteq F) of
// the Zhu–Hajek Markov chain — the number of peers currently holding each
// piece subset. Dense array indexed by bitmask; practical for K <= 16.
//
// When gamma = infinity the paper drops the F coordinate; we keep the slot
// (it simply stays zero) so one representation serves both regimes.
//
// TypeCountLedger wraps the state with the silent-pair bookkeeping the
// type-count simulator and the live monitor both need.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "util/assert.hpp"
#include "util/piece_set.hpp"

namespace p2p {

class TypeCountState {
 public:
  explicit TypeCountState(int num_pieces)
      : num_pieces_(num_pieces),
        counts_(std::size_t{1} << num_pieces, 0) {
    P2P_ASSERT_MSG(num_pieces >= 1 && num_pieces <= 16,
                   "TypeCountState supports K in [1, 16]");
  }

  int num_pieces() const { return num_pieces_; }
  std::size_t num_types() const { return counts_.size(); }

  std::int64_t count(PieceSet type) const { return counts_[type.mask()]; }
  std::int64_t count(std::uint64_t mask) const { return counts_[mask]; }

  void add(PieceSet type, std::int64_t delta) {
    counts_[type.mask()] += delta;
    total_ += delta;
    P2P_ASSERT(counts_[type.mask()] >= 0);
  }

  /// Moves one peer from type `from` to type `to` (a piece download).
  void transfer(PieceSet from, PieceSet to) {
    P2P_ASSERT(counts_[from.mask()] >= 1);
    counts_[from.mask()] -= 1;
    counts_[to.mask()] += 1;
  }

  /// Total number of peers n (including peer seeds).
  std::int64_t total_peers() const { return total_; }

  /// Number of peer seeds x_F.
  std::int64_t seeds() const { return counts_.back(); }

  /// Number of peers holding piece `piece`.
  std::int64_t holders_of(int piece) const {
    std::int64_t holders = 0;
    for (std::size_t m = 0; m < counts_.size(); ++m) {
      if ((m >> piece) & 1U) holders += counts_[m];
    }
    return holders;
  }

  const std::vector<std::int64_t>& raw() const { return counts_; }

  bool operator==(const TypeCountState&) const = default;

 private:
  int num_pieces_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

/// TypeCountState plus the incremental sums behind the silent-pair count:
/// the one implementation of that identity, shared by the type-count
/// simulator (sim/typecount_sim.hpp) and the live monitor
/// (service/monitor.hpp). With
///
///   sub(c) = sum over a subseteq c of x_a
///   sup(c) = sum over b superseteq c of x_b
///   S      = sum over ordered type pairs a subseteq b of x_a * x_b,
///
/// S is exactly the number of ordered peer pairs (i, j) where i cannot
/// help j (i = j included, matching independent uploader/target draws),
/// so n^2 - S pairs move a piece on contact. bump(c, delta) keeps all
/// three exact in O(2^|c|) + O(2^(K-|c|)):
///
///   delta S = delta * (sub(c) + sup(c)) + delta^2   (old sums).
class TypeCountLedger {
 public:
  explicit TypeCountLedger(int num_pieces)
      : state_(num_pieces),
        full_mask_((std::uint64_t{1} << num_pieces) - 1),
        sub_(state_.num_types(), 0),
        sup_(state_.num_types(), 0) {}

  const TypeCountState& state() const { return state_; }
  std::uint64_t full_mask() const { return full_mask_; }
  std::int64_t sub(std::uint64_t mask) const { return sub_[mask]; }
  std::int64_t sup(std::uint64_t mask) const { return sup_[mask]; }
  std::int64_t pair_sum() const { return pair_sum_; }

  /// n^2 - S: ordered peer pairs (i, j) where i holds a piece j lacks.
  std::int64_t nonsilent_pairs() const {
    const std::int64_t n = state_.total_peers();
    return n * n - pair_sum_;
  }

  /// x_mask += delta, keeping sub, sup and S consistent.
  void bump(std::uint64_t mask, std::int64_t delta) {
    if (delta == 0) return;
    // Pair-sum first: the identity uses the *old* subset/superset sums.
    pair_sum_ += delta * (sub_[mask] + sup_[mask]) + delta * delta;
    // Every a subseteq mask gains delta superset-weighted peers...
    for (std::uint64_t a = mask;; a = (a - 1) & mask) {
      sup_[a] += delta;
      if (a == 0) break;
    }
    // ...and every b superseteq mask gains delta subset-weighted peers.
    const std::uint64_t comp = full_mask_ & ~mask;
    std::uint64_t extra = 0;
    do {
      sub_[mask | extra] += delta;
      extra = (extra - comp) & comp;
    } while (extra != 0);
    state_.add(PieceSet(mask), delta);
  }

 private:
  TypeCountState state_;
  std::uint64_t full_mask_;
  std::vector<std::int64_t> sub_;
  std::vector<std::int64_t> sup_;
  std::int64_t pair_sum_ = 0;
};

}  // namespace p2p
