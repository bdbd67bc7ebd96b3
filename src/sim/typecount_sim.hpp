// TypeCountSim: million-peer simulation of the Zhu–Hajek model through
// the exchangeable type-count collapse.
//
// Peers holding the same PieceSet are exchangeable (nothing in the base
// model distinguishes them), so the swarm is stored as counts x_C per
// type instead of per-peer records, with events sampled by type through
// an O(K) binary-indexed tree (rand/weighted_index.hpp). Same law as
// SwarmSim with RandomUsefulPolicy, eta = 1 and homogeneous rates — the
// regime where the law itself is type-granular. Tests pin the two
// backends and the enumerated-generator oracle (ctmc/exact_sampler.hpp)
// against each other distributionally.
//
// The million-peer speedup comes from integrating silent events out
// analytically instead of materializing them. With S the silent-pair
// sum of core/state.hpp's TypeCountLedger — the number of ordered peer
// pairs (i, j) where i cannot help j, drawing i = j included (always
// silent, matching the per-peer model's independent uploader/target
// draws) — the chain with silent self-loops removed has effective rates
//
//   R_eff = lambda_total + Us * (n - x_F)/n * 1{n >= 1}
//         + mu * (n^2 - S)/n + gamma * x_F
//
// and identical law: holding times are Exp(R_eff) and every dispatched
// event changes the state, so work is paid per non-silent event only.
// Per event the costs are:
//
//   * ledger: an arrival, departure or injection of type c is one
//     TypeCountLedger::bump, 2^|c| + 2^(K-|c|) sum updates; a download
//     by a peer of type c is one fused transfer, 2^|c| + 2^(K-|c|-1);
//   * pair draw: non-silent uploader/target pairs are drawn by rejection
//     when the acceptance probability (n^2 - S)/n^2 >= 1/2 (expected
//     <= 2 tree samples of O(K) each), and by exact inversion over types
//     otherwise. The inversion branch fires exactly when non-silent
//     events are rare (a growing one-club, where it is the hot path), so
//     its two scans walk only the occupied types through the ledger's
//     occupancy bitmap: O(occupied types + 2^K / 64) each (a K = 8
//     one-club trace keeps about 19 of 256 types occupied).
//
// Sojourn times stay exact under exchangeability: each type keeps its
// members' arrival times, and the member affected by an event is a
// uniformly random one (swap-remove), which is the per-peer law
// conditioned on the type. A_t / D_t / occupancy are simple counters and
// integrals unaffected by silent-event aggregation; silent contacts are
// never materialized, so counters().silent_contacts stays 0.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/model.hpp"
#include "core/state.hpp"
#include "rand/rng.hpp"
#include "rand/weighted_index.hpp"
#include "sim/backend.hpp"

namespace p2p {

struct TypeCountSimOptions {
  /// Piece whose scarcity drives the A_t / D_t counting processes.
  int tracked_piece = 0;
  std::uint64_t rng_seed = 1;
};

class TypeCountSim final : public SwarmBackend {
 public:
  explicit TypeCountSim(SwarmParams params, TypeCountSimOptions options = {});

  double now() const override { return occupancy_.now(); }
  std::int64_t total_peers() const override { return state().total_peers(); }
  std::int64_t peer_seeds() const override { return state().seeds(); }
  const SwarmParams& params() const { return params_; }
  const TypeCountState& state() const { return ledger_.state(); }

  void inject_peers(PieceSet type, std::int64_t count) override;

  bool step() override;
  void run_until(double t_end) override;
  /// Samples `fn(t)` every `dt` of simulated time up to t_end (pre-event
  /// state, mirroring SwarmSim::run_sampled).
  void run_sampled(double t_end, double dt,
                   const std::function<void(double)>& fn);

  double time_averaged_peers() const override {
    return occupancy_.time_average();
  }
  double occupancy_integral() const override { return occupancy_.integral(); }
  const OnlineStats& sojourn_stats() const override { return sojourn_; }
  const SwarmCounters& counters() const override { return counters_; }
  TypeCountState type_counts() const override { return state(); }

  /// Unbiased estimate of the *nominal* event count: the events an
  /// event-per-silent-contact sampler (SwarmSim) would have drawn over
  /// the same simulated span. Each effective step adds R_nominal / R_eff,
  /// the mean number of nominal events per effective one under Poisson
  /// thinning. This is the events/sec numerator that makes backend
  /// throughputs comparable (bench/bench_swarm.cpp).
  double nominal_events() const { return nominal_events_; }
  /// Materialized (non-silent) events actually dispatched.
  std::int64_t effective_steps() const { return effective_steps_; }

 private:
  /// Applies x_c += delta to the ledger and the sampling tree.
  void bump(std::uint64_t mask, std::int64_t delta);

  /// Uniform random member's arrival time of type `mask`, removed
  /// (swap-remove; exchangeability makes any member equivalent in law).
  double take_arrival_time(std::uint64_t mask);

  /// Target of type c downloads a uniform piece of `useful` from the
  /// fixed seed (kSeed) or a peer (kPiece).
  void complete_download(std::uint64_t c_mask, PieceSet useful,
                         SwarmEventKind kind);

  void do_arrival();
  /// Seed tick conditioned on non-silent: target is a uniform non-seed.
  void do_seed_tick();
  /// Peer tick conditioned on non-silent: ordered pair (uploader a,
  /// target b) with a not subseteq b, probability proportional to
  /// x_a * x_b. Rejection while most pairs are non-silent, else two
  /// inversion scans over the occupied types only.
  void do_peer_tick();
  void do_seed_departure();

  struct EffectiveRates {
    double arrival = 0, seed = 0, peer = 0, depart = 0;
    double nominal_total = 0;
    double total() const { return arrival + seed + peer + depart; }
  };
  EffectiveRates effective_rates() const;
  void dispatch(const EffectiveRates& rates);

  SwarmParams params_;
  TypeCountSimOptions options_;
  Rng rng_;

  TypeCountLedger ledger_;
  WeightedIndex<std::int64_t> peers_by_type_;
  std::vector<std::vector<double>> arrival_times_;
  std::vector<double> arrival_weights_;

  SwarmCounters counters_;
  OccupancyIntegral occupancy_;
  OnlineStats sojourn_;
  double nominal_events_ = 0;
  std::int64_t effective_steps_ = 0;
};

}  // namespace p2p
