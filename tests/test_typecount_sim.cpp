// Backend-equivalence suite for TypeCountSim (sim/typecount_sim.hpp).
//
// The type-count backend claims the *same law* as the per-peer SwarmSim
// and the enumerated-generator oracle (ctmc/exact_sampler.hpp) on its domain (RandomUseful, eta = 1, homogeneous
// rates) while integrating silent events out analytically. These tests
// pin that claim for K <= 3:
//   * occupancy pmf and per-type means against the exact truncated
//     stationary solver (the strongest anchor: no sampler on either side);
//   * occupancy pmf against SwarmSim and ExactGeneratorSampler under
//     matched horizons (three-way statistical agreement);
//   * conservation identities, flash injection, sojourn/Little's law,
//     A_t / D_t parity with SwarmSim in expectation;
//   * the silent-event aggregation itself: nominal_events() agrees with
//     the nominal event count SwarmSim materializes.
#include "sim/typecount_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "ctmc/stationary.hpp"
#include "ctmc/exact_sampler.hpp"
#include "sim/stats.hpp"
#include "sim/swarm.hpp"

namespace p2p {
namespace {

std::vector<double> occupancy_pmf(SwarmBackend& sim, double warmup,
                                  double horizon, double dt,
                                  std::int64_t cap) {
  sim.run_until(warmup);
  std::vector<double> pmf(static_cast<std::size_t>(cap + 1), 0.0);
  std::int64_t samples = 0;
  // Both concrete backends expose run_sampled with identical pre-event
  // semantics; dispatch by hand since the interface keeps it concrete.
  const auto sample = [&](double) {
    ++samples;
    pmf[static_cast<std::size_t>(std::min(cap, sim.total_peers()))] += 1.0;
  };
  if (auto* tc = dynamic_cast<TypeCountSim*>(&sim)) {
    tc->run_sampled(horizon, dt, sample);
  } else {
    dynamic_cast<SwarmSim&>(sim).run_sampled(horizon, dt, sample);
  }
  for (auto& p : pmf) p /= static_cast<double>(samples);
  return pmf;
}

class TypeCountSimOccupancyTest
    : public ::testing::TestWithParam<std::tuple<int, double, double, double>> {
};

// Anchor: the exact truncated stationary solver (same tolerances as
// test_typecount_distribution.cpp uses for the oracle).
TEST_P(TypeCountSimOccupancyTest, PmfAndTypeMeansMatchExactSolver) {
  const auto [k, lambda, us, gamma] = GetParam();
  const SwarmParams params(k, us, 1.0, gamma, {{PieceSet{}, lambda}});
  // The truncated solver's state count grows like C(cap + 2^K, 2^K);
  // tighten the cap as K grows, staying far above the occupied range.
  const std::int64_t cap = k == 1 ? 50 : (k == 2 ? 25 : 12);
  const auto solved = solve_truncated_swarm(params, cap);

  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 77});
  sim.run_until(500.0);
  std::vector<double> pmf(static_cast<std::size_t>(cap + 1), 0.0);
  std::vector<double> type_means(std::size_t{1} << k, 0.0);
  std::int64_t samples = 0;
  sim.run_sampled(30000.0, 1.5, [&](double) {
    ++samples;
    const TypeCountState& s = sim.state();
    pmf[static_cast<std::size_t>(std::min(cap, s.total_peers()))] += 1.0;
    for (std::size_t m = 0; m < s.num_types(); ++m) {
      type_means[m] += static_cast<double>(s.count(m));
    }
  });
  for (auto& p : pmf) p /= static_cast<double>(samples);
  for (auto& m : type_means) m /= static_cast<double>(samples);

  for (std::int64_t n = 0; n <= 12; ++n) {
    const double exact = solved.peer_count_pmf(n);
    if (exact < 0.01) continue;
    EXPECT_NEAR(pmf[static_cast<std::size_t>(n)], exact, 0.15 * exact + 0.01)
        << "P{N = " << n << "}";
  }
  for_each_subset(PieceSet::full(k), [&](PieceSet c) {
    const double exact = solved.mean_count(c);
    if (exact < 0.05) return;
    EXPECT_NEAR(type_means[c.mask()], exact, 0.2 * exact + 0.03)
        << "E[x_" << c.to_string() << "]";
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TypeCountSimOccupancyTest,
    ::testing::Values(
        std::make_tuple(1, 1.0, 2.0, 3.0),
        std::make_tuple(1, 0.5, 1.0, kInfiniteRate),
        std::make_tuple(2, 0.7, 2.0, 3.0),
        std::make_tuple(2, 0.5, 1.5, kInfiniteRate),
        std::make_tuple(3, 0.5, 2.0, kInfiniteRate),
        std::make_tuple(2, 1.0, 2.0, 0.8)));  // altruistic branch

// Three-way agreement: TypeCountSim vs SwarmSim vs ExactGeneratorSampler
// on one K = 3 configuration with typed arrivals (example 3's mix), all
// run to the same horizon. Per-cell tolerance: each estimate is a time
// average over ~2e4 samples; 0.02 absolute covers 5+ sigma for every
// pmf cell compared.
TEST(TypeCountSim, ThreeSamplersAgreeOnOccupancy) {
  const SwarmParams params(3, 1.0, 1.0, kInfiniteRate,
                           {{PieceSet::single(0), 0.4},
                            {PieceSet::single(1).with(2), 0.5}});
  const std::int64_t cap = 30;
  const double warmup = 300.0;
  const double horizon = 20000.0;
  const double dt = 1.0;

  TypeCountSim typecount(params, TypeCountSimOptions{.rng_seed = 41});
  SwarmSim per_peer(params, SwarmSimOptions{.rng_seed = 42});
  const std::vector<double> pmf_typecount =
      occupancy_pmf(typecount, warmup, horizon, dt, cap);
  const std::vector<double> pmf_per_peer =
      occupancy_pmf(per_peer, warmup, horizon, dt, cap);

  ExactGeneratorSampler exact(params, 43);
  exact.run_until(warmup);
  std::vector<double> pmf_exact(static_cast<std::size_t>(cap + 1), 0.0);
  std::int64_t samples = 0;
  exact.run_sampled(horizon, dt, [&](double, const TypeCountState& s) {
    ++samples;
    pmf_exact[static_cast<std::size_t>(
        std::min(cap, s.total_peers()))] += 1.0;
  });
  for (auto& p : pmf_exact) p /= static_cast<double>(samples);

  for (std::int64_t n = 0; n <= cap; ++n) {
    const auto i = static_cast<std::size_t>(n);
    if (pmf_exact[i] < 0.01 && pmf_typecount[i] < 0.01 &&
        pmf_per_peer[i] < 0.01) {
      continue;
    }
    EXPECT_NEAR(pmf_typecount[i], pmf_exact[i], 0.02) << "P{N=" << n << "}";
    EXPECT_NEAR(pmf_typecount[i], pmf_per_peer[i], 0.02)
        << "P{N=" << n << "}";
  }
}

// Counting-process parity: every download moves a peer one piece closer,
// so over a run from empty, arrivals - departures = population and
// downloads account exactly for the pieces held (immediate departure:
// departed peers held K each).
TEST(TypeCountSim, ConservationIdentitiesHold) {
  const int k = 3;
  const SwarmParams params(k, 1.0, 1.0, kInfiniteRate,
                           {{PieceSet{}, 1.0}});
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 7});
  sim.run_until(2000.0);
  const SwarmCounters& c = sim.counters();
  EXPECT_EQ(c.arrivals - c.departures, sim.total_peers());
  // Empty-type arrivals: every piece in the system was downloaded.
  std::int64_t held = 0;
  const TypeCountState& s = sim.state();
  for (std::size_t m = 0; m < s.num_types(); ++m) {
    held += s.count(m) *
            static_cast<std::int64_t>(PieceSet(std::uint64_t{m}).size());
  }
  EXPECT_EQ(c.downloads, held + c.departures * k);
  // A_t counts every empty-type arrival; D_t every tracked download.
  EXPECT_EQ(c.arrivals_without_tracked, c.arrivals);
  EXPECT_LE(c.downloads_of_tracked, c.downloads);
  // Silent contacts are aggregated away, never materialized.
  EXPECT_EQ(c.silent_contacts, 0);
  EXPECT_GT(sim.nominal_events(), static_cast<double>(sim.effective_steps()));
}

TEST(TypeCountSim, FlashInjectionAndOneClubDynamics) {
  // One-club flash crowd under immediate departure: the missing piece
  // only enters through the fixed seed, so departures <= seed downloads
  // and every departure's sojourn is recorded.
  const int k = 3;
  SwarmParams params(k, 0.5, 1.0, kInfiniteRate,
                     SwarmParams::one_club_mix(k));
  params = params.with_arrivals_scaled(0.2);
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 9});
  sim.inject_peers(PieceSet::full(k).without(0), 500);
  EXPECT_EQ(sim.total_peers(), 500);
  EXPECT_EQ(sim.peer_seeds(), 0);
  sim.run_until(50.0);
  const SwarmCounters& c = sim.counters();
  // Every departure was a one-club peer completing via the tracked piece.
  EXPECT_EQ(c.departures, c.downloads_of_tracked);
  EXPECT_EQ(sim.sojourn_stats().count(), c.departures);
  EXPECT_EQ(sim.total_peers(), 500 + c.arrivals - c.departures);
  // No arrival carries piece 0.
  EXPECT_EQ(c.arrivals_without_tracked, c.arrivals);
}

TEST(TypeCountSim, SojournTimeMatchesLittlesLaw) {
  const auto params = SwarmParams::example1(1.0, 2.0, 1.0, 3.0);
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 99});
  sim.run_until(500.0);
  OnlineStats n_stats;
  sim.run_sampled(30000.0, 2.0, [&](double) {
    n_stats.add(static_cast<double>(sim.total_peers()));
  });
  const double mean_n = n_stats.mean();
  const double mean_sojourn = sim.sojourn_stats().mean();
  EXPECT_NEAR(mean_n, params.total_arrival_rate() * mean_sojourn,
              0.1 * mean_n);
}

// A_t / D_t in expectation: both backends see the same arrival process
// and (in steady state) the same download flux of the tracked piece, so
// the counting rates must agree between backends.
TEST(TypeCountSim, CountingProcessesMatchPerPeerInExpectation) {
  const SwarmParams params(2, 1.5, 1.0, kInfiniteRate,
                           {{PieceSet{}, 0.8}});
  const double horizon = 20000.0;
  TypeCountSim typecount(params, TypeCountSimOptions{.rng_seed = 5});
  SwarmSim per_peer(params, SwarmSimOptions{.rng_seed = 6});
  typecount.run_until(horizon);
  per_peer.run_until(horizon);
  const double a_rate_tc =
      static_cast<double>(typecount.counters().arrivals_without_tracked) /
      horizon;
  const double a_rate_pp =
      static_cast<double>(per_peer.arrivals_without_tracked()) / horizon;
  // Both are Poisson(lambda * t) / t at lambda = 0.8: sd ~ 0.0063.
  EXPECT_NEAR(a_rate_tc, 0.8, 0.05);
  EXPECT_NEAR(a_rate_pp, a_rate_tc, 0.05);
  const double d_rate_tc =
      static_cast<double>(typecount.counters().downloads_of_tracked) /
      horizon;
  const double d_rate_pp =
      static_cast<double>(per_peer.downloads_of_tracked()) / horizon;
  // In steady state the tracked-piece download rate equals the departure
  // flux = arrival rate (every departed peer downloaded it exactly once).
  EXPECT_NEAR(d_rate_tc, d_rate_pp, 0.08);
}

// The silent-aggregation estimator: nominal_events() must agree with the
// event count an event-per-contact sampler draws over the same horizon.
// SwarmSim's steps ARE nominal events, so compare rates.
TEST(TypeCountSim, NominalEventEstimateMatchesPerContactSampler) {
  // Deep in the stable region (lambda well under Us) so the occupancy
  // integral — and with it the nominal event count — concentrates; near
  // criticality its run-to-run variance would swamp the comparison.
  const SwarmParams params(2, 2.0, 1.0, kInfiniteRate,
                           {{PieceSet{}, 0.5}});
  const double horizon = 20000.0;
  TypeCountSim aggregated(params, TypeCountSimOptions{.rng_seed = 11});
  SwarmSim event_level(params, SwarmSimOptions{.rng_seed = 12});
  aggregated.run_until(horizon);
  event_level.run_until(horizon);
  // gamma = inf: every departure rides on a completing download (there
  // are no standalone seed-departure events), so the per-contact event
  // count is arrivals + downloads + silent contacts.
  const SwarmCounters& c = event_level.counters();
  const double nominal_chain =
      static_cast<double>(c.arrivals + c.downloads + c.silent_contacts);
  const double nominal_sim = aggregated.nominal_events();
  // Two independent runs: the occupancy integral's autocorrelated noise
  // leaves a few percent of run-to-run spread even this deep in the
  // stable region.
  EXPECT_NEAR(nominal_sim / nominal_chain, 1.0, 0.08);
  // And the aggregation is real: fewer materialized steps than events.
  EXPECT_LT(static_cast<double>(aggregated.effective_steps()),
            0.9 * nominal_sim);
}

// Immediate-departure complete injections never join the population
// (parity with SwarmSim::add_peer).
TEST(TypeCountSim, CompleteInjectionUnderImmediateDepartureDeparts) {
  const SwarmParams params(2, 1.0, 1.0, kInfiniteRate, {{PieceSet{}, 1.0}});
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 3});
  sim.inject_peers(PieceSet::full(2), 10);
  EXPECT_EQ(sim.total_peers(), 0);
  EXPECT_EQ(sim.counters().departures, 10);
}

}  // namespace
}  // namespace p2p
