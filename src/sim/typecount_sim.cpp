#include "sim/typecount_sim.hpp"

#include "ctmc/event_rates.hpp"

namespace p2p {

namespace {
/// n^2 and x_a * (n - sup(a)) terms below must stay exact in int64:
/// n <= 2e9 keeps n^2 <= 4e18 < 2^63.
constexpr std::int64_t kMaxPopulation = 2'000'000'000;
}  // namespace

TypeCountSim::TypeCountSim(SwarmParams params, TypeCountSimOptions options)
    : params_(std::move(params)),
      options_(options),
      rng_(options.rng_seed),
      ledger_(params_.num_pieces()),
      peers_by_type_(std::size_t{1} << params_.num_pieces()),
      arrival_times_(std::size_t{1} << params_.num_pieces()) {
  P2P_ASSERT(options_.tracked_piece >= 0 &&
             options_.tracked_piece < params_.num_pieces());
  arrival_weights_.reserve(params_.arrivals().size());
  for (const auto& a : params_.arrivals()) arrival_weights_.push_back(a.rate);
}

void TypeCountSim::bump(std::uint64_t mask, std::int64_t delta) {
  ledger_.bump(mask, delta);
  peers_by_type_.update(static_cast<std::size_t>(mask), delta);
  P2P_ASSERT_MSG(state().total_peers() <= kMaxPopulation,
                 "TypeCountSim supports at most 2e9 concurrent peers");
}

double TypeCountSim::take_arrival_time(std::uint64_t mask) {
  std::vector<double>& times = arrival_times_[mask];
  P2P_ASSERT(!times.empty());
  const auto idx = static_cast<std::size_t>(
      rng_.uniform_int(static_cast<std::uint64_t>(times.size())));
  const double t = times[idx];
  times[idx] = times.back();
  times.pop_back();
  return t;
}

void TypeCountSim::inject_peers(PieceSet type, std::int64_t count) {
  P2P_ASSERT(count >= 0);
  if (count == 0) return;
  if (params_.immediate_departure() && type.mask() == ledger_.full_mask()) {
    // Complete peers depart the instant they enter (matching
    // SwarmSim::add_peer): they never join the population.
    counters_.departures += count;
    return;
  }
  bump(type.mask(), count);
  arrival_times_[type.mask()].insert(arrival_times_[type.mask()].end(),
                                     static_cast<std::size_t>(count),
                                     occupancy_.now());
}

void TypeCountSim::complete_download(std::uint64_t c_mask, PieceSet useful,
                                     SwarmEventKind kind) {
  P2P_ASSERT(!useful.empty());
  const int piece = useful.nth(static_cast<int>(
      rng_.uniform_int(static_cast<std::uint64_t>(useful.size()))));
  notify(kind, c_mask, piece);
  const std::uint64_t next = c_mask | (std::uint64_t{1} << piece);
  ++counters_.downloads;
  if (piece == options_.tracked_piece) ++counters_.downloads_of_tracked;
  const double arrived = take_arrival_time(c_mask);
  if (params_.immediate_departure() && next == ledger_.full_mask()) {
    bump(c_mask, -1);
    ++counters_.departures;
    sojourn_.add(occupancy_.now() - arrived);
    notify(SwarmEventKind::kDepart, next);
    return;
  }
  ledger_.transfer(c_mask, piece);
  peers_by_type_.update(static_cast<std::size_t>(c_mask), -1);
  peers_by_type_.update(static_cast<std::size_t>(next), +1);
  arrival_times_[next].push_back(arrived);
}

void TypeCountSim::do_arrival() {
  const std::size_t idx = rng_.discrete(arrival_weights_);
  const PieceSet type = params_.arrivals()[idx].type;
  ++counters_.arrivals;
  if (!type.contains(options_.tracked_piece)) {
    ++counters_.arrivals_without_tracked;
  }
  if (params_.immediate_departure() && type.mask() == ledger_.full_mask()) {
    ++counters_.departures;  // unreachable while lambda_F = 0; parity
    return;
  }
  bump(type.mask(), +1);
  arrival_times_[type.mask()].push_back(occupancy_.now());
  notify(SwarmEventKind::kArrive, type.mask());
}

void TypeCountSim::do_seed_tick() {
  // Conditioned on non-silent, the target is uniform among non-seed
  // peers. Slot F is the tree's last index, so a dart below n - x_F
  // cannot land on it.
  const std::int64_t eligible = state().total_peers() - state().seeds();
  P2P_ASSERT(eligible >= 1);
  const auto c_mask = static_cast<std::uint64_t>(peers_by_type_.find(
      static_cast<std::int64_t>(
          rng_.uniform_int(static_cast<std::uint64_t>(eligible)))));
  const PieceSet needed =
      PieceSet(c_mask).complement(params_.num_pieces());
  ++counters_.seed_downloads;
  complete_download(c_mask, needed, SwarmEventKind::kSeed);
}

void TypeCountSim::do_peer_tick() {
  const std::int64_t n = state().total_peers();
  const std::int64_t nonsilent = ledger_.nonsilent_pairs();
  P2P_ASSERT(nonsilent >= 1);
  std::uint64_t a_mask = 0;
  std::uint64_t b_mask = 0;
  if (2 * nonsilent >= n * n) {
    // Acceptance >= 1/2: rejection against the unconditioned pair law
    // (independent uniform peers; i = j allowed and silent, matching the
    // per-peer model's independent uploader/target draws).
    while (true) {
      a_mask = static_cast<std::uint64_t>(peers_by_type_.sample(rng_));
      b_mask = static_cast<std::uint64_t>(peers_by_type_.sample(rng_));
      if ((a_mask & ~b_mask) != 0) break;
    }
  } else {
    // Exact inversion over the occupied types: uploader type a with
    // weight x_a * (n - sup(a)) (its non-silent targets), then a uniform
    // non-superset target. An unoccupied type has weight 0 in both
    // draws, so skipping it leaves the chosen pair unchanged for every
    // dart; each scan costs O(occupied types + 2^K / 64).
    auto r = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(nonsilent)));
    a_mask = ledger_.find_occupied([&](std::uint64_t m) {
      const std::int64_t w = state().count(m) * (n - ledger_.sup(m));
      if (r < w) return true;
      r -= w;
      return false;
    });
    P2P_ASSERT(a_mask <= ledger_.full_mask());
    auto r2 = static_cast<std::int64_t>(rng_.uniform_int(
        static_cast<std::uint64_t>(n - ledger_.sup(a_mask))));
    b_mask = ledger_.find_occupied([&](std::uint64_t m) {
      if ((m & a_mask) == a_mask) return false;  // b superseteq a: silent
      const std::int64_t xb = state().count(m);
      if (r2 < xb) return true;
      r2 -= xb;
      return false;
    });
    P2P_ASSERT(b_mask <= ledger_.full_mask());
  }
  const PieceSet useful = PieceSet(a_mask).minus(PieceSet(b_mask));
  complete_download(b_mask, useful, SwarmEventKind::kPiece);
}

void TypeCountSim::do_seed_departure() {
  P2P_ASSERT(state().seeds() >= 1);
  const std::uint64_t full = ledger_.full_mask();
  const double arrived = take_arrival_time(full);
  bump(full, -1);
  ++counters_.departures;
  sojourn_.add(occupancy_.now() - arrived);
  notify(SwarmEventKind::kDepart, full);
}

TypeCountSim::EffectiveRates TypeCountSim::effective_rates() const {
  const std::int64_t n = state().total_peers();
  const std::int64_t seeds = state().seeds();
  const AggregateRates base =
      aggregate_event_rates(params_.view(), n, seeds);
  EffectiveRates rates;
  rates.arrival = base.arrival;
  rates.depart = base.depart;
  if (n >= 1) {
    rates.seed = params_.seed_rate() * static_cast<double>(n - seeds) /
                 static_cast<double>(n);
    rates.peer = params_.contact_rate() *
                 static_cast<double>(ledger_.nonsilent_pairs()) /
                 static_cast<double>(n);
  }
  rates.nominal_total = base.total();
  return rates;
}

void TypeCountSim::dispatch(const EffectiveRates& rates) {
  const double weights[4] = {rates.arrival, rates.seed, rates.peer,
                             rates.depart};
  switch (rng_.discrete(weights)) {
    case 0:
      do_arrival();
      break;
    case 1:
      do_seed_tick();
      break;
    case 2:
      do_peer_tick();
      break;
    case 3:
      do_seed_departure();
      break;
  }
}

bool TypeCountSim::step() {
  const EffectiveRates rates = effective_rates();
  const double total = rates.total();
  if (total <= 0) return false;
  occupancy_.advance(occupancy_.now() + rng_.exponential(total),
                     state().total_peers());
  nominal_events_ += rates.nominal_total / total;
  ++effective_steps_;
  dispatch(rates);
  return true;
}

void TypeCountSim::run_until(double t_end) {
  while (occupancy_.now() < t_end) {
    if (!step()) break;
  }
}

void TypeCountSim::run_sampled(double t_end, double dt,
                               const std::function<void(double)>& fn) {
  // Pre-event sampling: the holding time is drawn first, samples falling
  // strictly before the event are emitted, then the event is applied.
  double next_sample = occupancy_.now() + dt;
  while (occupancy_.now() < t_end) {
    const EffectiveRates rates = effective_rates();
    const double total = rates.total();
    if (total <= 0) break;
    const double event_time = occupancy_.now() + rng_.exponential(total);
    while (next_sample <= t_end && next_sample < event_time) {
      fn(next_sample);
      next_sample += dt;
    }
    occupancy_.advance(event_time, state().total_peers());
    nominal_events_ += rates.nominal_total / total;
    ++effective_steps_;
    dispatch(rates);
  }
  while (next_sample <= t_end) {
    fn(next_sample);
    next_sample += dt;
  }
}

}  // namespace p2p
