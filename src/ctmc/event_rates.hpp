// The four aggregate event-category rates of the Zhu–Hajek generator.
//
// Every sampler of the model draws its next event from the same four
// exponential clocks (Section III):
//
//   arrival  lambda_total                  (typed Poisson arrivals)
//   seed     Us * 1{n >= 1}                (fixed seed contacts a peer)
//   peer     mu * n                        (some peer's contact clock)
//   depart   gamma * x_F                   (a peer seed departs;
//                                           0 when gamma = infinity)
//
// This helper is the single source of those derivations, shared by the
// per-peer simulator (sim/swarm — which then applies its VIII-C
// retry-boost and heterogeneous-rate modifiers on top) and the
// type-count simulator (sim/typecount_sim — which subtracts the silent
// fraction from the seed and peer clocks; see that header).
#pragma once

#include <cstdint>

#include "core/model.hpp"

namespace p2p {

struct AggregateRates {
  double arrival = 0;
  double seed = 0;
  double peer = 0;
  double depart = 0;
  double total() const { return arrival + seed + peer + depart; }
};

/// Rates for a population of `peers` peers of which `peer_seeds` hold all
/// K pieces. Exact for the base model (RandomUseful selection, eta = 1,
/// homogeneous rates).
inline AggregateRates aggregate_event_rates(const SwarmParamsView& params,
                                            std::int64_t peers,
                                            std::int64_t peer_seeds) {
  AggregateRates rates;
  rates.arrival = params.total_arrival_rate();
  rates.seed = peers >= 1 ? params.seed_rate : 0.0;
  rates.peer = params.contact_rate * static_cast<double>(peers);
  rates.depart = params.immediate_departure()
                     ? 0.0
                     : params.seed_depart_rate *
                           static_cast<double>(peer_seeds);
  return rates;
}

}  // namespace p2p
