// SwarmParams: the parameter tuple of the Zhu–Hajek P2P model.
//
//   * K pieces (file split), pieces indexed 0..K-1.
//   * Fixed seed with contact-upload rate Us >= 0 (random peer contact +
//     random useful piece selection). The fixed seed is not a peer.
//   * Every peer contacts a uniformly random peer at rate mu > 0 and
//     uploads one uniformly random useful piece, if any.
//   * Type-C peers (holding piece set C on arrival) arrive as independent
//     Poisson processes with rates lambda_C.
//   * A peer holding all K pieces is a peer seed; it dwells for an
//     Exp(gamma) time before departing. gamma = +infinity means immediate
//     departure (and then lambda_F must be zero).
//
// The same struct parameterizes the aggregate type-count CTMC
// (core/generator.hpp), both simulators (sim/swarm.hpp,
// sim/typecount_sim.hpp) and the closed-form stability theory
// (core/stability.hpp).
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/piece_set.hpp"

namespace p2p {

/// One exogenous Poisson arrival stream: peers of type `type` arrive at
/// rate `rate`.
struct ArrivalSpec {
  PieceSet type;
  double rate = 0;
};

inline constexpr double kInfiniteRate = std::numeric_limits<double>::infinity();

/// A non-owning view of the model-parameter tuple. The sweep engine's
/// theory-only hot loop classifies millions of cells per second, and
/// materializing a SwarmParams per cell means a heap-allocated arrival
/// vector per cell; the view instead borrows an arrival span (typically
/// a per-thread scratch buffer). validate() enforces exactly the
/// invariants SwarmParams does — SwarmParams::validate() delegates here,
/// so the owning and borrowing paths cannot drift.
struct SwarmParamsView {
  int num_pieces = 0;
  /// Us: fixed-seed contact-upload rate.
  double seed_rate = 0;
  /// mu: per-peer contact-upload rate.
  double contact_rate = 0;
  /// gamma: peer-seed departure rate; +infinity = depart on completion.
  double seed_depart_rate = 0;
  std::span<const ArrivalSpec> arrivals;

  /// True iff gamma = infinity (peers depart the instant they complete).
  bool immediate_departure() const {
    return seed_depart_rate == kInfiniteRate;
  }

  /// mu/gamma in [0, 1) when mu < gamma; 0 when gamma = infinity.
  double mu_over_gamma() const {
    return immediate_departure() ? 0.0 : contact_rate / seed_depart_rate;
  }

  /// lambda_total = sum of all arrival rates (> 0 by model assumption).
  double total_arrival_rate() const {
    double total = 0;
    for (const auto& a : arrivals) total += a.rate;
    return total;
  }

  /// True iff copies of piece k can enter the system: Us > 0 or some
  /// arrival type contains k with positive rate. (Theorem 1's entry
  /// condition for the gamma <= mu case.)
  bool piece_can_enter(int piece) const {
    if (seed_rate > 0) return true;
    for (const auto& a : arrivals) {
      if (a.rate > 0 && a.type.contains(piece)) return true;
    }
    return false;
  }

  bool all_pieces_can_enter() const {
    for (int k = 0; k < num_pieces; ++k) {
      if (!piece_can_enter(k)) return false;
    }
    return true;
  }

  /// Aborts unless the tuple satisfies the model assumptions (the same
  /// checks SwarmParams runs at construction).
  void validate() const {
    P2P_ASSERT_MSG(num_pieces >= 1 && num_pieces <= kMaxPieces,
                   "K must be in [1, 64]");
    P2P_ASSERT_MSG(seed_rate >= 0, "Us must be nonnegative");
    P2P_ASSERT_MSG(contact_rate > 0, "mu must be positive");
    P2P_ASSERT_MSG(seed_depart_rate > 0, "gamma must be positive");
    const PieceSet full = PieceSet::full(num_pieces);
    double total = 0;
    for (const auto& a : arrivals) {
      P2P_ASSERT_MSG(a.rate >= 0, "arrival rates must be nonnegative");
      P2P_ASSERT_MSG(a.type.is_subset_of(full),
                     "arrival type must be a subset of the K pieces");
      if (immediate_departure()) {
        P2P_ASSERT_MSG(!(a.type == full) || a.rate == 0,
                       "lambda_F must be 0 when gamma = infinity");
      }
      total += a.rate;
    }
    P2P_ASSERT_MSG(total > 0, "total arrival rate must be positive");
  }
};

class SwarmParams {
 public:
  SwarmParams(int num_pieces, double seed_rate, double contact_rate,
              double seed_depart_rate, std::vector<ArrivalSpec> arrivals)
      : num_pieces_(num_pieces),
        seed_rate_(seed_rate),
        contact_rate_(contact_rate),
        seed_depart_rate_(seed_depart_rate),
        arrivals_(std::move(arrivals)) {
    validate();
  }

  int num_pieces() const { return num_pieces_; }
  /// Us: fixed-seed contact-upload rate.
  double seed_rate() const { return seed_rate_; }
  /// mu: per-peer contact-upload rate.
  double contact_rate() const { return contact_rate_; }
  /// gamma: peer-seed departure rate; +infinity = depart on completion.
  double seed_depart_rate() const { return seed_depart_rate_; }
  /// True iff gamma = infinity (peers depart the instant they complete).
  bool immediate_departure() const {
    return seed_depart_rate_ == kInfiniteRate;
  }

  const std::vector<ArrivalSpec>& arrivals() const { return arrivals_; }

  /// The borrowing view of this tuple (valid while *this lives). The
  /// shared accessors below delegate to it, so the two representations
  /// answer every model question identically.
  SwarmParamsView view() const {
    return SwarmParamsView{num_pieces_, seed_rate_, contact_rate_,
                           seed_depart_rate_, arrivals_};
  }

  /// lambda_total = sum of all arrival rates (> 0 by model assumption).
  double total_arrival_rate() const { return view().total_arrival_rate(); }

  /// lambda_C for a specific type (0 if not listed).
  double arrival_rate(PieceSet type) const {
    double total = 0;
    for (const auto& a : arrivals_) {
      if (a.type == type) total += a.rate;
    }
    return total;
  }

  /// True iff copies of piece k can enter the system: Us > 0 or some
  /// arrival type contains k with positive rate. (Theorem 1's entry
  /// condition for the gamma <= mu case.)
  bool piece_can_enter(int piece) const {
    return view().piece_can_enter(piece);
  }

  bool all_pieces_can_enter() const { return view().all_pieces_can_enter(); }

  /// mu/gamma in [0, 1) when mu < gamma; 0 when gamma = infinity.
  double mu_over_gamma() const { return view().mu_over_gamma(); }

  /// Returns a copy with every arrival rate scaled by `s` (used by the
  /// critical-load solvers and the region benches).
  SwarmParams with_arrivals_scaled(double s) const {
    auto copy = *this;
    for (auto& a : copy.arrivals_) a.rate *= s;
    return copy;
  }
  SwarmParams with_seed_rate(double us) const {
    auto copy = *this;
    copy.seed_rate_ = us;
    copy.validate();
    return copy;
  }
  SwarmParams with_seed_depart_rate(double gamma) const {
    auto copy = *this;
    copy.seed_depart_rate_ = gamma;
    copy.validate();
    return copy;
  }

  // --- Named constructors for the paper's three worked examples ---

  /// Example 1 / Fig. 1(a): K = 1, empty arrivals at rate lambda0, fixed
  /// seed Us, dwell rate gamma.
  static SwarmParams example1(double lambda0, double us, double mu,
                              double gamma) {
    return SwarmParams(1, us, mu, gamma, {{PieceSet{}, lambda0}});
  }

  /// Example 2 / Fig. 1(b): K = 4, arrivals of type {1,2} at lambda12 and
  /// type {3,4} at lambda34, no fixed seed, immediate departure.
  static SwarmParams example2(double lambda12, double lambda34, double mu) {
    return SwarmParams(
        4, 0.0, mu, kInfiniteRate,
        {{PieceSet::single(0).with(1), lambda12},
         {PieceSet::single(2).with(3), lambda34}});
  }

  /// Example 3 / Fig. 1(c): K = 3, single-piece arrivals lambda1..3, no
  /// fixed seed, dwell rate gamma.
  static SwarmParams example3(double lambda1, double lambda2, double lambda3,
                              double mu, double gamma) {
    return SwarmParams(3, 0.0, mu, gamma,
                       {{PieceSet::single(0), lambda1},
                        {PieceSet::single(1), lambda2},
                        {PieceSet::single(2), lambda3}});
  }

  // --- Named arrival mixes (unit-total typed streams) ---
  //
  // A "mix" is a list of ArrivalSpecs whose rates are *fractions* summing
  // to 1: multiply every rate by lambda_total to obtain an arrival stream
  // of that composition. The scenario layer (engine/scenario.hpp)
  // interpolates between the empty-arrival stream and a named mix.

  /// Rescales `mix` so its rates sum to 1. Total must be positive.
  static std::vector<ArrivalSpec> normalized_mix(std::vector<ArrivalSpec> mix) {
    double total = 0;
    for (const auto& a : mix) {
      P2P_ASSERT_MSG(a.rate >= 0, "mix weights must be nonnegative");
      total += a.rate;
    }
    P2P_ASSERT_MSG(total > 0, "mix weights must have a positive sum");
    for (auto& a : mix) a.rate /= total;
    return mix;
  }

  /// Example 2's paired-halves mix over K = 4: type {1,2} at relative
  /// weight w12, type {3,4} at w34 (paper numbering; fractions normalized).
  static std::vector<ArrivalSpec> example2_mix(double w12, double w34) {
    return normalized_mix({{PieceSet::single(0).with(1), w12},
                           {PieceSet::single(2).with(3), w34}});
  }

  /// Example 3's single-piece mix over K = 3: type {i} at weight wi.
  static std::vector<ArrivalSpec> example3_mix(double w1, double w2,
                                               double w3) {
    return normalized_mix({{PieceSet::single(0), w1},
                           {PieceSet::single(1), w2},
                           {PieceSet::single(2), w3}});
  }

  /// The one-club mix over K >= 2 pieces: every arrival already holds
  /// F - {0} (all but the paper's piece one) — the missing-piece-syndrome
  /// stream of Section V.
  static std::vector<ArrivalSpec> one_club_mix(int num_pieces) {
    P2P_ASSERT_MSG(num_pieces >= 2 && num_pieces <= kMaxPieces,
                   "one-club mix needs K in [2, 64]");
    return {{PieceSet::full(num_pieces).without(0), 1.0}};
  }

  std::string to_string() const {
    std::string s = "SwarmParams{K=" + std::to_string(num_pieces_) +
                    ", Us=" + std::to_string(seed_rate_) +
                    ", mu=" + std::to_string(contact_rate_) + ", gamma=" +
                    (immediate_departure() ? std::string("inf")
                                           : std::to_string(seed_depart_rate_));
    for (const auto& a : arrivals_) {
      s += ", lambda" + a.type.to_string(/*one_based=*/true) + "=" +
           std::to_string(a.rate);
    }
    return s + "}";
  }

 private:
  void validate() const { view().validate(); }

  int num_pieces_;
  double seed_rate_;
  double contact_rate_;
  double seed_depart_rate_;
  std::vector<ArrivalSpec> arrivals_;
};

}  // namespace p2p
