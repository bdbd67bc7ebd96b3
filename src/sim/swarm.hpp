// SwarmSim: exact per-peer stochastic simulation of the Zhu–Hajek model.
//
// Implements the model of Section III at individual-peer granularity:
// Poisson arrivals of typed peers, a fixed seed and per-peer contact
// clocks with *uniform random peer contact*, pluggable useful-piece
// selection (Section VIII-A), Exp(gamma) peer-seed dwell, and the
// Section VIII-C "faster retry" variant (clock runs `retry_boost`x faster
// after an unsuccessful contact, until the next tick).
//
// With the default RandomUsefulPolicy and retry_boost = 1 the law of the
// induced type-count process is exactly the CTMC of core/generator.hpp;
// tests cross-validate the two simulators distributionally.
//
// The simulator additionally tracks the Section V / Fig. 2 partition of
// peers relative to a designated "tracked piece" (default piece 0, the
// paper's piece one): normal young (a), infected (b), one-club (e),
// former one-club (f), gifted (g), plus the counting processes A_t
// (arrivals without the tracked piece) and D_t (downloads of the tracked
// piece) used in the transience proof.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "core/state.hpp"
#include "rand/rng.hpp"
#include "sim/backend.hpp"
#include "sim/policy.hpp"
#include "sim/stats.hpp"

namespace p2p {

/// The five-group partition of Fig. 2 (relative to the tracked piece).
struct GroupCounts {
  std::int64_t normal_young = 0;    // (a) missing tracked piece + >=1 more
  std::int64_t infected = 0;        // (b) got tracked piece after arrival
  std::int64_t one_club = 0;        // (e) missing exactly the tracked piece
  std::int64_t former_one_club = 0; // (f) was one-club, now a peer seed
  std::int64_t gifted = 0;          // (g) arrived holding the tracked piece
  std::int64_t total() const {
    return normal_young + infected + one_club + former_one_club + gifted;
  }
};

/// A peer bandwidth class for the heterogeneous-rate extension (Section
/// IX names heterogeneous link speeds as the natural next step beyond the
/// paper's homogeneous model). A peer drawn into class i contacts at rate
/// multiplier * mu.
struct RateClass {
  double weight = 1;      // selection weight at arrival
  double multiplier = 1;  // upload-rate multiplier, > 0
};

/// Mean-preserving two-class heterogeneity: a slow class at multiplier
/// 1 - h and a fast class at 1 + h * slow_weight / fast_weight, so the
/// selection-weighted mean multiplier is exactly 1 and mu keeps its
/// Theorem-1 meaning as the mean upload capacity. h = 0 returns the empty
/// vector (the homogeneous fast path: no per-peer class draw at all).
/// Requires h in [0, 1) and positive weights.
inline std::vector<RateClass> two_class_spread(double h,
                                               double slow_weight = 1,
                                               double fast_weight = 1) {
  P2P_ASSERT_MSG(h >= 0 && h < 1,
                 "hetero spread must lie in [0, 1) (slow multiplier 1 - h "
                 "must stay positive)");
  P2P_ASSERT_MSG(slow_weight > 0 && fast_weight > 0,
                 "hetero class weights must be positive");
  if (h == 0) return {};
  return {{slow_weight, 1.0 - h},
          {fast_weight, 1.0 + h * slow_weight / fast_weight}};
}

struct SwarmSimOptions {
  /// Piece whose scarcity is tracked for the Fig. 2 partition.
  int tracked_piece = 0;
  /// Section VIII-C retry factor eta >= 1; 1 = the base model.
  double retry_boost = 1.0;
  /// Empty = homogeneous (every peer at rate mu). Otherwise each arriving
  /// or injected peer is assigned a class with probability proportional
  /// to weight.
  std::vector<RateClass> rate_classes;
  /// Useful-piece selection used by the policy-less constructor. The
  /// default is the Theorem-1 baseline, so existing call sites keep their
  /// exact event stream.
  PolicyKind policy = PolicyKind::kRandomUseful;
  std::uint64_t rng_seed = 1;
};

class SwarmSim final : public SwarmBackend {
 public:
  SwarmSim(SwarmParams params, std::unique_ptr<PieceSelectionPolicy> policy,
           SwarmSimOptions options = {});

  /// Convenience: the policy selected by options.policy (the Theorem-1
  /// RandomUsefulPolicy unless overridden).
  SwarmSim(SwarmParams params, SwarmSimOptions options = {});

  /// Adds `count` peers of the given type at the current instant (e.g. a
  /// one-club flash crowd). Peers injected this way are classified as if
  /// they arrived with their current pieces (so a one-club injection is
  /// "one-club", not "gifted").
  void inject_peers(PieceSet type, std::int64_t count) override;

  double now() const override { return occupancy_.now(); }
  std::int64_t total_peers() const override {
    return static_cast<std::int64_t>(peers_.size());
  }
  std::int64_t peer_seeds() const override {
    return static_cast<std::int64_t>(seed_indices_.size());
  }
  const GroupCounts& groups() const { return groups_; }
  /// Number of peers holding piece i.
  std::int64_t holders_of(int piece) const { return piece_holders_[piece]; }
  const SwarmParams& params() const { return params_; }
  const PieceSelectionPolicy& policy() const { return *policy_; }

  /// Aggregate state vector (for cross-validation with the CTMC); K <= 16.
  TypeCountState type_counts() const override;

  /// Advances one event (possibly silent). Returns false iff total rate 0.
  bool step() override;
  void run_until(double t_end) override;
  /// Samples `fn(t)` every `dt` of simulated time up to t_end.
  void run_sampled(double t_end, double dt,
                   const std::function<void(double)>& fn);

  // --- Counting processes (Section VI) ---
  const SwarmCounters& counters() const override { return counters_; }
  /// A_t: cumulative arrivals without the tracked piece.
  std::int64_t arrivals_without_tracked() const {
    return counters_.arrivals_without_tracked;
  }
  /// D_t: cumulative downloads of the tracked piece.
  std::int64_t downloads_of_tracked() const {
    return counters_.downloads_of_tracked;
  }
  std::int64_t total_arrivals() const { return counters_.arrivals; }
  std::int64_t total_departures() const { return counters_.departures; }
  std::int64_t total_downloads() const { return counters_.downloads; }
  std::int64_t silent_contacts() const { return counters_.silent_contacts; }

  /// Sojourn times of departed peers (arrival to departure).
  const OnlineStats& sojourn_stats() const override { return sojourn_; }

  /// Exact time average of the peer population over [0, now()]:
  /// (1/t) integral of N_s ds, accumulated event-by-event (no sampling
  /// error). 0 before any simulated time has passed.
  double time_averaged_peers() const override {
    return occupancy_.time_average();
  }
  double occupancy_integral() const override { return occupancy_.integral(); }

 private:
  struct Peer {
    PieceSet pieces;
    double arrival_time = 0;
    double rate_multiplier = 1.0;  // heterogeneous-rate extension
    bool gifted = false;        // arrived holding the tracked piece
    bool was_one_club = false;  // ever of type F - {tracked}
    bool boosted = false;       // VIII-C: last contact was unsuccessful
    std::int32_t seed_pos = -1; // index into seed_indices_, -1 if not seed
    std::int8_t group = 0;      // cached Fig. 2 group
  };

  /// Effective clock weight of a peer (multiplier x retry boost).
  double clock_weight(const Peer& peer) const {
    return peer.rate_multiplier *
           (peer.boosted ? options_.retry_boost : 1.0);
  }

  enum Group : std::int8_t {
    kNormalYoung = 0,
    kInfected = 1,
    kOneClub = 2,
    kFormerOneClub = 3,
    kGifted = 4,
  };

  /// Moves the clock to `t`, accruing the occupancy integral over the
  /// holding interval (the population is constant between events).
  void advance_time(double t);

  Group classify(const Peer& peer) const;
  std::int64_t& group_slot(Group g);
  void reclassify(std::size_t idx);

  void add_peer(PieceSet type, bool count_as_arrival);
  void remove_peer(std::size_t idx);
  /// Peer `idx` receives `piece` from the fixed seed (kSeed) or a peer
  /// (kPiece); handles completion/departure.
  void give_piece(std::size_t idx, int piece, SwarmEventKind kind);

  std::size_t random_peer_index();
  /// Weighted by the VIII-C boost (rejection sampling; exact).
  std::size_t random_uploader_index();

  void do_arrival();
  void do_seed_tick();
  void do_peer_tick();
  void do_seed_departure();

  struct EventRates {
    double arrival = 0, seed = 0, peer = 0, depart = 0;
    double total() const { return arrival + seed + peer + depart; }
  };
  EventRates event_rates() const;
  void dispatch(const EventRates& rates);

  SwarmView view() const {
    return SwarmView{params_.num_pieces(), piece_holders_,
                     static_cast<std::int64_t>(peers_.size())};
  }

  SwarmParams params_;
  std::unique_ptr<PieceSelectionPolicy> policy_;
  SwarmSimOptions options_;
  Rng rng_;

  std::vector<Peer> peers_;
  std::vector<std::uint32_t> seed_indices_;
  std::vector<std::int64_t> piece_holders_;
  std::vector<double> arrival_weights_;
  std::vector<double> class_weights_;
  GroupCounts groups_;
  std::int64_t boosted_peers_ = 0;
  /// Sum of clock_weight over all peers (drives the peer-tick rate).
  double total_clock_weight_ = 0;
  /// Rejection-sampling bound: max multiplier x retry boost.
  double max_clock_weight_ = 1;
  bool seed_boosted_ = false;

  SwarmCounters counters_;
  OccupancyIntegral occupancy_;
  OnlineStats sojourn_;
};

}  // namespace p2p
