#include "service/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/provisioning.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/number_format.hpp"

namespace p2p::service {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The monitor's consistency failures use the event-log parser's message
/// shape: line number first, offending line echoed verbatim.
[[noreturn]] void monitor_fail(const std::string& reason,
                               const std::string& line,
                               std::size_t line_number) {
  std::string msg =
      "event log line " + std::to_string(line_number) + ": " + reason;
  if (!line.empty()) msg += " (got \"" + line + "\")";
  detail::assert_fail("event stream consistent with replayed state",
                      __FILE__, __LINE__, msg);
}

}  // namespace

const char* to_string(MonitorVerdict verdict) {
  switch (verdict) {
    case MonitorVerdict::kEstimating:
      return "estimating";
    case MonitorVerdict::kStable:
      return "stable";
    case MonitorVerdict::kUnstable:
      return "unstable";
  }
  return "?";
}

bool MonitorEstimates::complete() const {
  if (!(std::isfinite(lambda) && lambda > 0)) return false;
  if (!(std::isfinite(mu) && mu > 0)) return false;
  if (!(std::isfinite(us) && us >= 0)) return false;
  if (std::isnan(gamma) || gamma <= 0) return false;
  if (gamma == kInfiniteRate) {
    // classify() would (rightly) abort on lambda_F > 0 with immediate
    // departure; a window showing that mix is not classifiable.
    const PieceSet full = PieceSet::full(num_pieces);
    for (const ArrivalSpec& a : arrivals) {
      if (a.type == full && a.rate > 0) return false;
    }
  }
  return true;
}

std::string advisory_json_line(const Advisory& advisory) {
  const MonitorEstimates& est = advisory.estimates;
  const bool classified = advisory.classified;
  std::string out;
  out.reserve(512);  // one allocation: a line runs 300-420 bytes
  JsonWriter json(out);
  json.begin_object().key("t").number(advisory.t);
  json.key("status").string(to_string(advisory.verdict)).key("raw");
  classified ? json.string(to_string(advisory.raw_verdict)) : json.null();
  json.key("margin").number(classified ? advisory.margin : kNaN);
  json.key("flips").integer(advisory.flips);
  json.key("events").integer(advisory.events);
  json.key("n").integer(est.peers).key("seeds").integer(est.seeds);
  json.key("coverage").number(est.coverage);
  json.key("mean_n").number(est.mean_peers);
  json.key("lambda").number(est.lambda).key("mix").begin_object();
  for (const ArrivalSpec& a : est.arrivals) {
    json.key(std::to_string(a.type.mask()))
        .number(est.lambda > 0 ? a.rate / est.lambda : kNaN);
  }
  json.end_object().key("us").number(est.us).key("mu").number(est.mu);
  // An infinite gamma renders null; dwell carries it as 0.
  json.key("gamma").number(est.gamma).key("dwell");
  json.number(est.gamma > 0 ? analysis::depart_rate_to_dwell(est.gamma)
                            : kNaN);
  json.key("us_required").number(classified ? advisory.us_required : kNaN);
  json.key("us_gap").number(classified ? advisory.us_gap : kNaN).end_object();
  return out;
}

void StabilityMonitor::Bucket::reset(std::int64_t new_epoch) {
  epoch = new_epoch;
  duration = 0;
  arrivals = 0;
  peer_downloads = 0;
  seed_downloads = 0;
  seed_departures = 0;
  peers_dt = 0;
  seeds_dt = 0;
  seed_target_dt = 0;
  peer_pair_dt = 0;
  arrivals_by_type.clear();
}

StabilityMonitor::StabilityMonitor(MonitorConfig config)
    : config_(config),
      bucket_width_(config.window / config.buckets),
      // Clamped so an unsupported K reaches the monitor's own check below.
      ledger_(std::clamp(config.num_pieces, 1, 16)),
      ring_(static_cast<std::size_t>(std::max(config.buckets, 1))) {
  P2P_ASSERT_MSG(config_.num_pieces >= 1 && config_.num_pieces <= 16,
                 "monitor supports K in [1, 16]");
  P2P_ASSERT_MSG(std::isfinite(config_.window) && config_.window > 0,
                 "monitor window must be positive and finite");
  P2P_ASSERT_MSG(config_.buckets >= 1, "monitor needs at least one bucket");
  P2P_ASSERT_MSG(
      std::isfinite(config_.advice_every) && config_.advice_every > 0,
      "advisory cadence must be positive and finite");
  P2P_ASSERT_MSG(!std::isnan(config_.hyst_enter) &&
                     !std::isnan(config_.hyst_exit) &&
                     config_.hyst_enter >= config_.hyst_exit,
                 "hysteresis needs hyst_enter >= hyst_exit");
  P2P_ASSERT_MSG(config_.pinned_gamma >= 0,
                 "pinned gamma must be positive (0 = estimate from the log)");
}

StabilityMonitor::Bucket& StabilityMonitor::bucket_for_slot(
    std::int64_t slot) {
  Bucket& bucket = ring_[static_cast<std::size_t>(slot) % ring_.size()];
  if (bucket.epoch != slot) bucket.reset(slot);
  return bucket;
}

void StabilityMonitor::advance_time(double t) {
  P2P_ASSERT(t >= time_);
  while (time_ < t) {
    const double slot_end = bucket_width_ * static_cast<double>(slot_ + 1);
    if (time_ >= slot_end) {
      ++slot_;
      continue;
    }
    const double upto = std::min(t, slot_end);
    const double dt = upto - time_;
    Bucket& bucket = bucket_for_slot(slot_);
    const double n = static_cast<double>(state().total_peers());
    const double s = static_cast<double>(state().seeds());
    bucket.duration += dt;
    bucket.peers_dt += n * dt;
    bucket.seeds_dt += s * dt;
    if (n > 0) {
      bucket.seed_target_dt += ((n - s) / n) * dt;
      bucket.peer_pair_dt +=
          (static_cast<double>(ledger_.nonsilent_pairs()) / n) * dt;
    }
    time_ = upto;
  }
}

void StabilityMonitor::apply(const SwarmEvent& event, const std::string& line,
                             std::size_t line_number) {
  Bucket& bucket = bucket_for_slot(slot_);
  switch (event.kind) {
    case SwarmEventKind::kArrive: {
      ledger_.bump(event.type, +1);
      ++bucket.arrivals;
      for (auto& [mask, count] : bucket.arrivals_by_type) {
        if (mask == event.type) {
          ++count;
          return;
        }
      }
      bucket.arrivals_by_type.emplace_back(event.type, 1);
      return;
    }
    case SwarmEventKind::kDepart: {
      if (state().count(event.type) <= 0) {
        monitor_fail("departure of type " + std::to_string(event.type) +
                         " but no such peer is present",
                     line, line_number);
      }
      if (event.type == ledger_.full_mask()) ++bucket.seed_departures;
      ledger_.bump(event.type, -1);
      return;
    }
    case SwarmEventKind::kPiece:
    case SwarmEventKind::kSeed: {
      if (state().count(event.type) <= 0) {
        monitor_fail("transfer to a peer of type " +
                         std::to_string(event.type) +
                         " but no such peer is present",
                     line, line_number);
      }
      if (event.piece < 0 || event.piece >= config_.num_pieces ||
          ((event.type >> event.piece) & 1U) != 0) {
        monitor_fail("transfer delivers an invalid or already-held piece",
                     line, line_number);
      }
      ledger_.transfer(event.type, event.piece);
      if (event.kind == SwarmEventKind::kPiece) {
        ++bucket.peer_downloads;
      } else {
        ++bucket.seed_downloads;
      }
      return;
    }
  }
  monitor_fail("unknown event kind", line, line_number);
}

MonitorEstimates StabilityMonitor::estimates() const {
  MonitorEstimates est;
  est.num_pieces = config_.num_pieces;
  double coverage = 0, peers_dt = 0, seeds_dt = 0;
  double seed_target_dt = 0, peer_pair_dt = 0;
  std::int64_t arrivals = 0, peer_downloads = 0, seed_downloads = 0;
  std::int64_t seed_departures = 0;
  std::vector<std::int64_t> by_type(std::size_t{1} << config_.num_pieces, 0);
  for (const Bucket& bucket : ring_) {
    if (bucket.epoch < 0) continue;
    coverage += bucket.duration;
    peers_dt += bucket.peers_dt;
    seeds_dt += bucket.seeds_dt;
    seed_target_dt += bucket.seed_target_dt;
    peer_pair_dt += bucket.peer_pair_dt;
    arrivals += bucket.arrivals;
    peer_downloads += bucket.peer_downloads;
    seed_downloads += bucket.seed_downloads;
    seed_departures += bucket.seed_departures;
    for (const auto& [mask, count] : bucket.arrivals_by_type) {
      by_type[mask] += count;
    }
  }
  est.coverage = coverage;
  est.lambda =
      coverage > 0 ? static_cast<double>(arrivals) / coverage : kNaN;
  est.us = seed_target_dt > 0
               ? static_cast<double>(seed_downloads) / seed_target_dt
               : kNaN;
  est.mu = peer_pair_dt > 0
               ? static_cast<double>(peer_downloads) / peer_pair_dt
               : kNaN;
  if (config_.pinned_gamma > 0) {
    est.gamma = config_.pinned_gamma;
  } else if (seeds_dt > 0) {
    est.gamma = static_cast<double>(seed_departures) / seeds_dt;
  } else {
    // No peer-seed exposure: departures without dwell time mean
    // immediate departure; zero of each means "cannot tell yet".
    est.gamma = seed_departures > 0 ? kInfiniteRate : kNaN;
  }
  est.peers = state().total_peers();
  est.seeds = state().seeds();
  est.mean_peers = coverage > 0 ? peers_dt / coverage : kNaN;
  if (coverage > 0) {
    for (std::size_t mask = 0; mask < by_type.size(); ++mask) {
      if (by_type[mask] > 0) {
        est.arrivals.push_back(
            {PieceSet(mask), static_cast<double>(by_type[mask]) / coverage});
      }
    }
  }
  return est;
}

Advisory StabilityMonitor::make_advisory(double t) {
  Advisory advisory;
  advisory.t = t;
  advisory.events = events_;
  advisory.estimates = estimates();
  advisory.margin = kNaN;
  advisory.us_required = kNaN;
  advisory.us_gap = kNaN;
  if (advisory.estimates.complete()) {
    const MonitorEstimates& est = advisory.estimates;
    const SwarmParamsView view{config_.num_pieces, est.us, est.mu, est.gamma,
                               est.arrivals};
    const StabilityReport report = classify(view);
    advisory.classified = true;
    advisory.raw_verdict = report.verdict;
    // The altruistic branch has no finite margin; for hysteresis it is
    // as deep inside (or outside) the region as a point can be.
    advisory.margin =
        report.altruistic_branch
            ? (report.verdict == Stability::kPositiveRecurrent
                   ? std::numeric_limits<double>::infinity()
                   : -std::numeric_limits<double>::infinity())
            : report.margin;
    const analysis::SeedAdvice advice = analysis::seed_advice(view);
    advisory.us_required = advice.us_required;
    advisory.us_gap = advice.us_gap;
    MonitorVerdict target = verdict_;
    if (advisory.margin >= config_.hyst_enter) {
      target = MonitorVerdict::kStable;
    } else if (advisory.margin <= config_.hyst_exit) {
      target = MonitorVerdict::kUnstable;
    }
    if (target != verdict_) {
      if (verdict_ != MonitorVerdict::kEstimating) ++flips_;
      verdict_ = target;
    }
  }
  advisory.verdict = verdict_;
  advisory.flips = flips_;
  last_advisory_t_ = t;
  advised_ = true;
  return advisory;
}

void StabilityMonitor::feed(const SwarmEvent& event, const std::string& line,
                            std::size_t line_number,
                            const AdvisorySink& advise) {
  if (!(std::isfinite(event.t) && event.t >= 0)) {
    monitor_fail("timestamp must be finite and nonnegative", line,
                 line_number);
  }
  if (saw_event_ && event.t < last_event_t_) {
    monitor_fail("timestamp " + format_number(event.t) +
                     " goes backwards (previous event at " +
                     format_number(last_event_t_) + ")",
                 line, line_number);
  }
  while (config_.advice_every * static_cast<double>(tick_) <= event.t) {
    const double tick_t = config_.advice_every * static_cast<double>(tick_);
    advance_time(tick_t);
    const Advisory advisory = make_advisory(tick_t);
    if (advise) advise(advisory);
    ++tick_;
  }
  advance_time(event.t);
  apply(event, line, line_number);
  saw_event_ = true;
  last_event_t_ = event.t;
  ++events_;
}

void StabilityMonitor::finish(const AdvisorySink& advise) {
  if (!saw_event_) return;
  if (advised_ && last_advisory_t_ >= last_event_t_) return;
  advance_time(last_event_t_);
  const Advisory advisory = make_advisory(last_event_t_);
  if (advise) advise(advisory);
}

}  // namespace p2p::service
