#include "sim/swarm.hpp"

#include <algorithm>

#include "ctmc/event_rates.hpp"

namespace p2p {

SwarmSim::SwarmSim(SwarmParams params,
                   std::unique_ptr<PieceSelectionPolicy> policy,
                   SwarmSimOptions options)
    : params_(std::move(params)),
      policy_(std::move(policy)),
      options_(options),
      rng_(options.rng_seed),
      piece_holders_(static_cast<std::size_t>(params_.num_pieces()), 0) {
  P2P_ASSERT(policy_ != nullptr);
  P2P_ASSERT(options_.tracked_piece >= 0 &&
             options_.tracked_piece < params_.num_pieces());
  P2P_ASSERT(options_.retry_boost >= 1.0);
  arrival_weights_.reserve(params_.arrivals().size());
  for (const auto& a : params_.arrivals()) arrival_weights_.push_back(a.rate);
  double max_multiplier = 1.0;
  for (const auto& cls : options_.rate_classes) {
    P2P_ASSERT_MSG(cls.weight >= 0 && cls.multiplier > 0,
                   "rate classes need nonnegative weight, positive rate");
    class_weights_.push_back(cls.weight);
    max_multiplier = std::max(max_multiplier, cls.multiplier);
  }
  max_clock_weight_ = max_multiplier * options_.retry_boost;
}

SwarmSim::SwarmSim(SwarmParams params, SwarmSimOptions options)
    : SwarmSim(std::move(params), make_policy(options.policy), options) {}

SwarmSim::Group SwarmSim::classify(const Peer& peer) const {
  const PieceSet full = PieceSet::full(params_.num_pieces());
  const int tracked = options_.tracked_piece;
  if (!peer.pieces.contains(tracked)) {
    return peer.pieces == full.without(tracked) ? kOneClub : kNormalYoung;
  }
  if (peer.gifted) return kGifted;
  if (peer.was_one_club) return kFormerOneClub;
  return kInfected;
}

std::int64_t& SwarmSim::group_slot(Group g) {
  switch (g) {
    case kNormalYoung:
      return groups_.normal_young;
    case kInfected:
      return groups_.infected;
    case kOneClub:
      return groups_.one_club;
    case kFormerOneClub:
      return groups_.former_one_club;
    case kGifted:
      return groups_.gifted;
  }
  P2P_ASSERT(false);
  return groups_.normal_young;
}

void SwarmSim::reclassify(std::size_t idx) {
  Peer& peer = peers_[idx];
  const Group next = classify(peer);
  if (next != static_cast<Group>(peer.group)) {
    --group_slot(static_cast<Group>(peer.group));
    ++group_slot(next);
    peer.group = next;
  }
}

void SwarmSim::add_peer(PieceSet type, bool count_as_arrival) {
  const PieceSet full = PieceSet::full(params_.num_pieces());
  if (params_.immediate_departure() && type == full) {
    // A complete arrival departs instantly; it never joins the population.
    if (count_as_arrival) ++counters_.arrivals;
    ++counters_.departures;
    return;
  }
  Peer peer;
  peer.pieces = type;
  peer.arrival_time = occupancy_.now();
  if (!class_weights_.empty()) {
    peer.rate_multiplier =
        options_.rate_classes[rng_.discrete(class_weights_)].multiplier;
  }
  peer.gifted = type.contains(options_.tracked_piece);
  peer.was_one_club = type == full.without(options_.tracked_piece);
  peers_.push_back(peer);
  total_clock_weight_ += peer.rate_multiplier;  // new peers are unboosted
  const std::size_t idx = peers_.size() - 1;
  for (int piece : type) ++piece_holders_[piece];
  if (type == full) {
    peers_[idx].seed_pos = static_cast<std::int32_t>(seed_indices_.size());
    seed_indices_.push_back(static_cast<std::uint32_t>(idx));
  }
  const Group g = classify(peers_[idx]);
  peers_[idx].group = g;
  ++group_slot(g);
  if (count_as_arrival) {
    ++counters_.arrivals;
    if (!type.contains(options_.tracked_piece)) {
      ++counters_.arrivals_without_tracked;
    }
    notify(SwarmEventKind::kArrive, type.mask());
  }
}

void SwarmSim::inject_peers(PieceSet type, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    add_peer(type, /*count_as_arrival=*/false);
  }
}

void SwarmSim::remove_peer(std::size_t idx) {
  Peer& peer = peers_[idx];
  notify(SwarmEventKind::kDepart, peer.pieces.mask());
  sojourn_.add(occupancy_.now() - peer.arrival_time);
  for (int piece : peer.pieces) --piece_holders_[piece];
  --group_slot(static_cast<Group>(peer.group));
  total_clock_weight_ -= clock_weight(peer);
  if (peer.boosted) --boosted_peers_;
  if (peer.seed_pos >= 0) {
    // Swap-remove from the seed index list.
    const auto pos = static_cast<std::size_t>(peer.seed_pos);
    const std::uint32_t last = seed_indices_.back();
    seed_indices_[pos] = last;
    peers_[last].seed_pos = static_cast<std::int32_t>(pos);
    seed_indices_.pop_back();
    // If `last == idx` the pop already removed it; seed_pos fixup above is
    // then harmless (peer is about to be destroyed).
  }
  // Swap-remove from the peer vector.
  const std::size_t last_idx = peers_.size() - 1;
  if (idx != last_idx) {
    peers_[idx] = peers_[last_idx];
    if (peers_[idx].seed_pos >= 0) {
      seed_indices_[static_cast<std::size_t>(peers_[idx].seed_pos)] =
          static_cast<std::uint32_t>(idx);
    }
  }
  peers_.pop_back();
  ++counters_.departures;
}

void SwarmSim::give_piece(std::size_t idx, int piece, SwarmEventKind kind) {
  Peer& peer = peers_[idx];
  P2P_ASSERT(!peer.pieces.contains(piece));
  notify(kind, peer.pieces.mask(), piece);
  peer.pieces = peer.pieces.with(piece);
  ++piece_holders_[piece];
  ++counters_.downloads;
  if (piece == options_.tracked_piece) ++counters_.downloads_of_tracked;

  const PieceSet full = PieceSet::full(params_.num_pieces());
  if (peer.pieces == full) {
    if (params_.immediate_departure()) {
      remove_peer(idx);
      return;
    }
    peer.seed_pos = static_cast<std::int32_t>(seed_indices_.size());
    seed_indices_.push_back(static_cast<std::uint32_t>(idx));
  } else if (peer.pieces == full.without(options_.tracked_piece)) {
    peer.was_one_club = true;
  }
  reclassify(idx);
}

std::size_t SwarmSim::random_peer_index() {
  P2P_ASSERT(!peers_.empty());
  return static_cast<std::size_t>(
      rng_.uniform_int(static_cast<std::uint64_t>(peers_.size())));
}

std::size_t SwarmSim::random_uploader_index() {
  if ((options_.retry_boost == 1.0 || boosted_peers_ == 0) &&
      class_weights_.empty()) {
    return random_peer_index();
  }
  // Rejection sampling against the clock weight (multiplier x boost).
  while (true) {
    const std::size_t idx = random_peer_index();
    if (rng_.uniform() * max_clock_weight_ < clock_weight(peers_[idx])) {
      return idx;
    }
  }
}

void SwarmSim::do_arrival() {
  const std::size_t choice = rng_.discrete(arrival_weights_);
  add_peer(params_.arrivals()[choice].type, /*count_as_arrival=*/true);
}

void SwarmSim::do_seed_tick() {
  const std::size_t target = random_peer_index();
  const PieceSet needed =
      peers_[target].pieces.complement(params_.num_pieces());
  if (needed.empty()) {
    ++counters_.silent_contacts;
    seed_boosted_ = true;
    return;
  }
  seed_boosted_ = false;
  const int piece = policy_->select(needed, peers_[target].pieces, view(),
                                    rng_);
  P2P_ASSERT(needed.contains(piece));
  ++counters_.seed_downloads;
  give_piece(target, piece, SwarmEventKind::kSeed);
}

void SwarmSim::do_peer_tick() {
  const std::size_t uploader = random_uploader_index();
  const std::size_t target = random_peer_index();
  const PieceSet useful = peers_[uploader].pieces.minus(peers_[target].pieces);
  if (useful.empty()) {
    ++counters_.silent_contacts;
    if (!peers_[uploader].boosted) {
      total_clock_weight_ -= clock_weight(peers_[uploader]);
      peers_[uploader].boosted = true;
      total_clock_weight_ += clock_weight(peers_[uploader]);
      ++boosted_peers_;
    }
    return;
  }
  if (peers_[uploader].boosted) {
    total_clock_weight_ -= clock_weight(peers_[uploader]);
    peers_[uploader].boosted = false;
    total_clock_weight_ += clock_weight(peers_[uploader]);
    --boosted_peers_;
  }
  const int piece =
      policy_->select(useful, peers_[target].pieces, view(), rng_);
  P2P_ASSERT(useful.contains(piece));
  give_piece(target, piece, SwarmEventKind::kPiece);
}

void SwarmSim::do_seed_departure() {
  P2P_ASSERT(!seed_indices_.empty());
  const std::size_t pos = static_cast<std::size_t>(
      rng_.uniform_int(static_cast<std::uint64_t>(seed_indices_.size())));
  remove_peer(seed_indices_[pos]);
}

SwarmSim::EventRates SwarmSim::event_rates() const {
  // Base-model clocks from the shared derivation, then the per-peer
  // modifiers: the VIII-C retry boost scales the seed clock while the
  // last seed contact was unsuccessful, and the peer clock runs on the
  // incrementally maintained sum of per-peer clock weights (multiplier x
  // boost) instead of plain mu * n.
  const AggregateRates base = aggregate_event_rates(
      params_.view(), static_cast<std::int64_t>(peers_.size()),
      static_cast<std::int64_t>(seed_indices_.size()));
  EventRates rates;
  rates.arrival = base.arrival;
  rates.seed = base.seed * (seed_boosted_ ? options_.retry_boost : 1.0);
  // Clamp at zero so floating-point residue from non-dyadic multipliers
  // can never produce a (tiny) negative rate.
  rates.peer = params_.contact_rate() * std::max(0.0, total_clock_weight_);
  rates.depart = base.depart;
  return rates;
}

void SwarmSim::dispatch(const EventRates& rates) {
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

void SwarmSim::advance_time(double t) {
  occupancy_.advance(t, static_cast<std::int64_t>(peers_.size()));
}

bool SwarmSim::step() {
  const EventRates rates = event_rates();
  if (rates.total() <= 0) return false;
  advance_time(occupancy_.now() + rng_.exponential(rates.total()));
  dispatch(rates);
  return true;
}

void SwarmSim::run_until(double t_end) {
  while (occupancy_.now() < t_end) {
    if (!step()) break;
  }
}

void SwarmSim::run_sampled(double t_end, double dt,
                           const std::function<void(double)>& fn) {
  // Samples observe the pre-event state: the holding time is drawn first,
  // samples falling strictly before the next event time are emitted, and
  // only then is the event applied.
  double next_sample = occupancy_.now() + dt;
  while (occupancy_.now() < t_end) {
    const EventRates rates = event_rates();
    if (rates.total() <= 0) break;
    const double event_time =
        occupancy_.now() + rng_.exponential(rates.total());
    while (next_sample <= t_end && next_sample < event_time) {
      fn(next_sample);
      next_sample += dt;
    }
    advance_time(event_time);
    dispatch(rates);
  }
  while (next_sample <= t_end) {
    fn(next_sample);
    next_sample += dt;
  }
}

TypeCountState SwarmSim::type_counts() const {
  TypeCountState state(params_.num_pieces());
  for (const Peer& peer : peers_) state.add(peer.pieces, +1);
  return state;
}

}  // namespace p2p
