// SwarmBackend: the simulation-layer abstraction with two implementations
// of one law.
//
//   * SwarmSim (sim/swarm.hpp) — per-peer state. O(1) per event but
//     every silent contact is a materialized event; required whenever the
//     law itself is peer-granular: piece-selection policies other than
//     RandomUseful, the VIII-C retry boost (eta > 1), heterogeneous
//     per-peer rates, Fig. 2 group tracking.
//
//   * TypeCountSim (sim/typecount_sim.hpp) — peers with identical
//     PieceSets are exchangeable, so the swarm is stored as counts per
//     type with aggregate rates maintained incrementally and silent
//     events integrated out analytically. Orders of magnitude faster on
//     large swarms; exact for the base model (RandomUseful, eta = 1,
//     homogeneous rates).
//
// The interface is the surface engine/sweep.cpp's replica runner, the
// event-log emitter (sim/event_log.hpp) and the cross-backend
// equivalence tests need; concrete extras (group counts, policy hooks,
// run_sampled) stay on the concrete classes.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "core/state.hpp"
#include "sim/stats.hpp"
#include "util/piece_set.hpp"

namespace p2p {

enum class SwarmEventKind { kArrive, kDepart, kPiece, kSeed };

/// One state change of the swarm (sim/event_log.hpp gives its wire
/// format).
struct SwarmEvent {
  double t = 0;
  SwarmEventKind kind = SwarmEventKind::kArrive;
  /// arrive/depart: the peer's type. piece/seed: the target's type
  /// before the download.
  std::uint64_t type = 0;
  /// Downloaded piece index for piece/seed; -1 otherwise.
  int piece = -1;

  bool operator==(const SwarmEvent&) const = default;
};

using SwarmEventSink = std::function<void(const SwarmEvent&)>;

class SwarmBackend {
 public:
  virtual ~SwarmBackend() = default;

  /// Current simulated time.
  virtual double now() const = 0;
  virtual std::int64_t total_peers() const = 0;
  virtual std::int64_t peer_seeds() const = 0;

  /// Adds `count` peers of the given type at the current instant (e.g. a
  /// one-club flash crowd). Not counted as arrivals.
  virtual void inject_peers(PieceSet type, std::int64_t count) = 0;

  /// Advances one event. Returns false iff the total event rate is zero.
  virtual bool step() = 0;
  virtual void run_until(double t_end) = 0;

  /// Exact time average of the peer population over [0, now()].
  virtual double time_averaged_peers() const = 0;
  /// Raw occupancy integral (for warmup-window subtraction).
  virtual double occupancy_integral() const = 0;

  /// Sojourn times of departed peers (arrival to departure).
  virtual const OnlineStats& sojourn_stats() const = 0;
  /// The backend-agnostic counting processes.
  virtual const SwarmCounters& counters() const = 0;

  /// Aggregate state vector (for cross-validation); K <= 16.
  virtual TypeCountState type_counts() const = 0;

  /// Installs `observer`, which then sees every state change as it is
  /// applied, stamped with now(): arrive, piece or seed transfer, depart.
  /// A download that completes a peer under immediate departure fires
  /// its transfer, then the departure. Silent contacts and inject_peers
  /// fire nothing. An empty observer detaches.
  void set_event_observer(SwarmEventSink observer) {
    observer_ = std::move(observer);
  }

 protected:
  void notify(SwarmEventKind kind, std::uint64_t type, int piece = -1) const {
    if (observer_) observer_({now(), kind, type, piece});
  }

 private:
  SwarmEventSink observer_;
};

}  // namespace p2p
