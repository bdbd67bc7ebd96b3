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

#include <bit>
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
///
/// A download moves one peer from c to d = c | {piece}. transfer(c,
/// piece) is bump(c, -1); bump(d, +1) with the cancelling terms dropped:
/// the subsets of d are the subsets a of c plus the a | {piece}, and the
/// supersets of c are the supersets of d plus the c | e for e subseteq
/// F \ d, so only
///
///   sup(a | {piece}) += 1   for a subseteq c          (2^|c| writes)
///   sub(c | e)       -= 1   for e subseteq F \ d      (2^(K-|c|-1))
///   delta S = -(sub(c) + sup(c)) + (sub(d) - 1) + sup(d) + 2   (old sums)
///
/// remain, against 2^|c| + 2^(K-|c|) + 2^(|c|+1) + 2^(K-|c|-1) for the
/// two bumps. sub and sup stay dense and exact for every mask. The ledger
/// also keeps the set of occupied types {c : x_c > 0} as a 2^K-bit map,
/// which find_occupied walks in ascending mask order, one countr_zero per
/// occupied type plus one load per 64 types.
class TypeCountLedger {
 public:
  explicit TypeCountLedger(int num_pieces)
      : state_(num_pieces),
        full_mask_((std::uint64_t{1} << num_pieces) - 1),
        sub_(state_.num_types(), 0),
        sup_(state_.num_types(), 0),
        occupied_((state_.num_types() + 63) / 64, 0) {}

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
    sync_occupied(mask);
  }

  /// A peer of type `from` downloads `piece` (which it lacks): the fused
  /// bump(from, -1); bump(from | {piece}, +1) of the class comment.
  void transfer(std::uint64_t from, int piece) {
    const std::uint64_t bit = std::uint64_t{1} << piece;
    const std::uint64_t to = from | bit;
    P2P_ASSERT(to != from);
    pair_sum_ += -(sub_[from] + sup_[from]) + (sub_[to] - 1) + sup_[to] + 2;
    for (std::uint64_t a = from;; a = (a - 1) & from) {
      sup_[a | bit] += 1;
      if (a == 0) break;
    }
    const std::uint64_t comp = full_mask_ & ~to;
    std::uint64_t extra = 0;
    do {
      sub_[from | extra] -= 1;
      extra = (extra - comp) & comp;
    } while (extra != 0);
    state_.transfer(PieceSet(from), PieceSet(to));
    sync_occupied(from);
    sync_occupied(to);
  }

  /// Calls `visit(c)` for each occupied type c (x_c > 0) in ascending
  /// mask order until it returns true; returns that c, or num_types()
  /// if every call returned false.
  template <typename Visit>
  std::uint64_t find_occupied(Visit&& visit) const {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const std::uint64_t mask =
            (std::uint64_t{w} << 6) |
            static_cast<std::uint64_t>(std::countr_zero(bits));
        if (visit(mask)) return mask;
      }
    }
    return state_.num_types();
  }

 private:
  /// Brings mask's occupancy bit in line with x_mask.
  void sync_occupied(std::uint64_t mask) {
    const std::uint64_t bit = std::uint64_t{1} << (mask & 63);
    std::uint64_t& word = occupied_[mask >> 6];
    word = state_.count(mask) > 0 ? (word | bit) : (word & ~bit);
  }

  TypeCountState state_;
  std::uint64_t full_mask_;
  std::vector<std::int64_t> sub_;
  std::vector<std::int64_t> sup_;
  std::vector<std::uint64_t> occupied_;
  std::int64_t pair_sum_ = 0;
};

}  // namespace p2p
