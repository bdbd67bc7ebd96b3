// PieceSet: a subset of the file's pieces {0, 1, ..., K-1}, stored as a
// 64-bit mask. This is the "type" of a peer in the Zhu–Hajek model (the
// paper numbers pieces 1..K; we use 0-based indices internally).
//
// The class is a value type; all operations are O(1) or O(K) and allocation
// free. Supports K up to 64 (the aggregate CTMC additionally restricts K so
// that 2^K state-vector entries fit in memory; see core/state.hpp).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "util/assert.hpp"

namespace p2p {

/// Maximum number of pieces supported by PieceSet.
inline constexpr int kMaxPieces = 64;

class PieceSet {
 public:
  /// The empty set.
  constexpr PieceSet() = default;

  /// A set from a raw bitmask (bit i <=> piece i present).
  constexpr explicit PieceSet(std::uint64_t mask) : mask_(mask) {}

  /// The full collection {0, ..., k-1}. Requires 0 <= k <= kMaxPieces.
  static constexpr PieceSet full(int k) {
    P2P_ASSERT_MSG(k >= 0 && k <= kMaxPieces,
                   "PieceSet::full requires 0 <= k <= 64");
    return PieceSet(k >= 64 ? ~std::uint64_t{0}
                            : ((std::uint64_t{1} << k) - 1));
  }

  /// The singleton {piece}. Requires 0 <= piece < kMaxPieces.
  static constexpr PieceSet single(int piece) {
    P2P_ASSERT_MSG(piece >= 0 && piece < kMaxPieces,
                   "PieceSet::single requires 0 <= piece < 64");
    return PieceSet(std::uint64_t{1} << piece);
  }

  constexpr std::uint64_t mask() const { return mask_; }
  constexpr int size() const { return std::popcount(mask_); }
  constexpr bool empty() const { return mask_ == 0; }

  constexpr bool contains(int piece) const {
    return (mask_ >> piece) & std::uint64_t{1};
  }
  constexpr bool is_subset_of(PieceSet other) const {
    return (mask_ & ~other.mask_) == 0;
  }
  constexpr bool is_proper_subset_of(PieceSet other) const {
    return is_subset_of(other) && mask_ != other.mask_;
  }

  constexpr PieceSet with(int piece) const {
    return PieceSet(mask_ | (std::uint64_t{1} << piece));
  }
  constexpr PieceSet without(int piece) const {
    return PieceSet(mask_ & ~(std::uint64_t{1} << piece));
  }

  /// Set difference: pieces in this set but not in `other` (C - C' in the
  /// paper's notation).
  constexpr PieceSet minus(PieceSet other) const {
    return PieceSet(mask_ & ~other.mask_);
  }
  constexpr PieceSet intersect(PieceSet other) const {
    return PieceSet(mask_ & other.mask_);
  }
  constexpr PieceSet unite(PieceSet other) const {
    return PieceSet(mask_ | other.mask_);
  }

  /// Pieces of the full K-piece collection missing from this set.
  constexpr PieceSet complement(int k) const {
    return full(k).minus(*this);
  }

  /// Index (0-based) of the n-th lowest piece in the set. Requires
  /// 0 <= n < size().
  int nth(int n) const {
    P2P_ASSERT(n >= 0 && n < size());
    std::uint64_t m = mask_;
    for (int i = 0; i < n; ++i) m &= m - 1;  // clear lowest set bits
    return std::countr_zero(m);
  }

  /// Lowest-indexed piece in the set. Requires non-empty.
  int lowest() const {
    P2P_ASSERT(!empty());
    return std::countr_zero(mask_);
  }

  constexpr bool operator==(const PieceSet&) const = default;

  /// Iterates the pieces in the set in increasing order.
  class iterator {
   public:
    constexpr explicit iterator(std::uint64_t m) : m_(m) {}
    constexpr int operator*() const { return std::countr_zero(m_); }
    constexpr iterator& operator++() {
      m_ &= m_ - 1;
      return *this;
    }
    constexpr bool operator!=(const iterator& o) const { return m_ != o.m_; }

   private:
    std::uint64_t m_;
  };
  constexpr iterator begin() const { return iterator(mask_); }
  constexpr iterator end() const { return iterator(0); }

  /// Renders e.g. "{0,2,5}" (1-based "{1,3,6}" if one_based).
  std::string to_string(bool one_based = false) const {
    std::string out = "{";
    bool first = true;
    for (int p : *this) {
      if (!first) out += ",";
      out += std::to_string(p + (one_based ? 1 : 0));
      first = false;
    }
    out += "}";
    return out;
  }

 private:
  std::uint64_t mask_ = 0;
};

/// Enumerates all subsets of `superset` (including empty and superset
/// itself) via the standard subset-walk trick. Calls fn(PieceSet) for each.
template <typename Fn>
void for_each_subset(PieceSet superset, Fn&& fn) {
  const std::uint64_t sup = superset.mask();
  std::uint64_t sub = sup;
  while (true) {
    fn(PieceSet(sub));
    if (sub == 0) break;
    sub = (sub - 1) & sup;
  }
}

}  // namespace p2p
