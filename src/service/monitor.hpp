// Live stability monitoring: the long-running service leg of the
// roadmap's "millions of users, heavy traffic" north star.
//
// StabilityMonitor ingests a swarm event stream (sim/event_log.hpp
// grammar: arrive / depart / piece / seed lines with explicit
// timestamps), maintains sliding-window online estimates of the
// operating point (lambda, Us, mu, gamma, per-type mix), classifies the
// estimated tuple against the Theorem-1 region (core/stability.hpp) with
// hysteresis so the verdict cannot flap at the frontier, and emits a
// JSON-lines advisory stream with the seed capacity needed to re-enter
// the stable region (analysis/provisioning.hpp).
//
// Service-core style: single-threaded, allocation-free per event after
// warmup (ring-buffered window accumulators, a reused arrival scratch),
// and — crucially — time is an input, never a clock read. The monitor is
// a pure function of the event bytes, so every behavior replays
// byte-identically from a recorded log; the golden corpus under
// experiments/ pins exactly that.
//
// Estimators. The monitor replays the full type-count state x from the
// events (aborting on any inconsistency, e.g. a transfer to a type with
// no peers), so each window can invert the model's observable rates
// exactly:
//
//   lambda = arrivals / T                (per-type counts give the mix)
//   Us     = seed transfers / int (n - x_F)/n dt     (seed targets a
//            uniform peer; silent iff it is a peer seed)
//   mu     = peer transfers / int (n^2 - S)/n dt     (S = silent-pair
//            sum over ordered type pairs a subseteq b, maintained
//            incrementally by core/state.hpp's TypeCountLedger)
//   gamma  = full-type departures / int x_F dt       (0/0 = unknown;
//            c/0 with c > 0 = immediate departure = infinity)
//
// so on a log generated by the model the estimates converge to the
// generating SwarmParams — the property the estimator tests pin.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/state.hpp"
#include "core/stability.hpp"
#include "sim/event_log.hpp"

namespace p2p::service {

struct MonitorConfig {
  /// Piece count K of the monitored swarm (the event grammar's masks
  /// live in [0, 2^K)). Required; K in [1, 16].
  int num_pieces = 0;
  /// Sliding estimation window, in log-time units.
  double window = 60;
  /// Ring resolution: the window is covered by this many bucket slots
  /// (old buckets are recycled in place; no allocation per event).
  int buckets = 64;
  /// Advisory cadence: one advisory line per this much log time (ticks
  /// at every * 1, every * 2, ...; a tick fires when the first event at
  /// or past it is fed, using the estimates strictly before the tick).
  double advice_every = 1;
  /// Hysteresis on the Theorem-1 margin: the filtered verdict becomes
  /// stable only at margin >= hyst_enter and unstable only at
  /// margin <= hyst_exit; in between it holds its previous value.
  /// Requires hyst_enter >= hyst_exit (the deadband may be empty, which
  /// disables hysteresis). On the altruistic branch (gamma <= mu) the
  /// margin is taken as +-infinity by verdict.
  double hyst_enter = 0.05;
  double hyst_exit = -0.05;
  /// 0 = estimate gamma from the log; a positive rate (kInfiniteRate
  /// allowed) pins it, for operators who configure the dwell policy and
  /// do not want it inferred.
  double pinned_gamma = 0;
};

/// The hysteresis-filtered advisory verdict. kEstimating until the
/// window first supports a classification.
enum class MonitorVerdict { kEstimating, kStable, kUnstable };

const char* to_string(MonitorVerdict verdict);

/// One window's operating-point estimates. Quantities the window cannot
/// yet identify are NaN.
struct MonitorEstimates {
  int num_pieces = 0;
  /// Log time actually covered by the window (< window while warming
  /// up, then ~window).
  double coverage = 0;
  double lambda = 0, us = 0, mu = 0, gamma = 0;
  /// Estimated per-type arrival rates (rate units, summing to lambda);
  /// ascending by type mask.
  std::vector<ArrivalSpec> arrivals;
  /// Instantaneous population and peer-seed count.
  std::int64_t peers = 0;
  std::int64_t seeds = 0;
  /// Windowed time-average population.
  double mean_peers = 0;

  /// True iff the tuple can be classified: lambda and mu positive and
  /// finite, us finite, gamma positive (infinity allowed — but not with
  /// a full-type arrival stream, which the model forbids).
  bool complete() const;
};

struct Advisory {
  double t = 0;
  std::size_t events = 0;  // events processed before this tick
  MonitorEstimates estimates;
  /// False while estimates are incomplete: raw/margin/us_* are then
  /// meaningless and render as null.
  bool classified = false;
  Stability raw_verdict = Stability::kBorderline;
  /// Theorem-1 margin of the estimated point (+-infinity on the
  /// altruistic branch).
  double margin = 0;
  MonitorVerdict verdict = MonitorVerdict::kEstimating;
  /// Cumulative stable <-> unstable transitions of the filtered verdict.
  std::size_t flips = 0;
  /// analysis/provisioning seed advice at the estimated point.
  double us_required = 0;
  double us_gap = 0;
};

/// One '\n'-terminated JSON advisory line, written by util/json.hpp's
/// JsonWriter. Deterministic bytes: numbers via format_number
/// (non-finite -> null), mix keys in ascending mask order.
std::string advisory_json_line(const Advisory& advisory);

using AdvisorySink = std::function<void(const Advisory&)>;

class StabilityMonitor {
 public:
  explicit StabilityMonitor(MonitorConfig config);

  /// Feeds one event. `line` / `line_number` name the input for error
  /// echoes (pass the raw line when replaying a log). Aborts — echoing
  /// the line — on a timestamp earlier than the previous event's or an
  /// event inconsistent with the replayed state (departure or transfer
  /// from a type with no peers). Fires `advise` for every advisory tick
  /// at or before event.t, then applies the event.
  void feed(const SwarmEvent& event, const std::string& line,
            std::size_t line_number, const AdvisorySink& advise);

  /// Emits a final advisory at the last event's timestamp (if any event
  /// arrived since the last tick-aligned advisory).
  void finish(const AdvisorySink& advise);

  std::size_t events_processed() const { return events_; }
  std::size_t flips() const { return flips_; }
  MonitorVerdict verdict() const { return verdict_; }
  const TypeCountState& state() const { return ledger_.state(); }

  /// The current window's estimates (what the next advisory would
  /// carry).
  MonitorEstimates estimates() const;

 private:
  struct Bucket {
    std::int64_t epoch = -1;  // global slot index, -1 = never used
    double duration = 0;
    std::int64_t arrivals = 0;
    std::int64_t peer_downloads = 0;
    std::int64_t seed_downloads = 0;
    std::int64_t seed_departures = 0;
    double peers_dt = 0;        // int n dt
    double seeds_dt = 0;        // int x_F dt
    double seed_target_dt = 0;  // int (n - x_F)/n dt
    double peer_pair_dt = 0;    // int (n^2 - S)/n dt
    std::vector<std::pair<std::uint64_t, std::int64_t>> arrivals_by_type;
    void reset(std::int64_t new_epoch);
  };

  /// Accrues the window integrals from time_ to t (splitting across
  /// bucket boundaries) and advances the clock.
  void advance_time(double t);
  Bucket& bucket_for_slot(std::int64_t slot);
  void apply(const SwarmEvent& event, const std::string& line,
             std::size_t line_number);
  Advisory make_advisory(double t);

  MonitorConfig config_;
  double bucket_width_;
  TypeCountLedger ledger_;

  std::vector<Bucket> ring_;
  double time_ = 0;
  std::int64_t slot_ = 0;
  bool saw_event_ = false;
  double last_event_t_ = 0;
  std::size_t events_ = 0;
  std::int64_t tick_ = 1;  // next advisory fires at advice_every * tick_
  bool advised_ = false;
  double last_advisory_t_ = 0;

  MonitorVerdict verdict_ = MonitorVerdict::kEstimating;
  std::size_t flips_ = 0;
  std::vector<ArrivalSpec> scratch_arrivals_;
};

}  // namespace p2p::service
