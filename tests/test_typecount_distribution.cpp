// Distribution-level cross-validation against the exact truncated
// stationary solver, over a parameter grid (TEST_P): the enumerated-
// generator oracle's occupancy measure (test_typecount_sim.cpp holds the
// type-count simulator to the same grid), then the per-peer simulator
// and Little's law. It compares the full peer-count pmf and per-type
// means, not just E[N].
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "ctmc/stationary.hpp"
#include "ctmc/exact_sampler.hpp"
#include "sim/stats.hpp"
#include "sim/swarm.hpp"

namespace p2p {
namespace {

struct Occupancy {
  std::vector<double> pmf;           // P{N = n}, n = 0..cap
  std::vector<double> type_means;    // E[x_C]
};

Occupancy simulate_occupancy(const SwarmParams& params, std::uint64_t seed,
                             double warmup, double horizon, double dt,
                             std::int64_t cap) {
  Occupancy occ;
  occ.pmf.assign(static_cast<std::size_t>(cap + 1), 0.0);
  occ.type_means.assign(std::size_t{1} << params.num_pieces(), 0.0);
  ExactGeneratorSampler oracle(params, seed);
  oracle.run_until(warmup);
  std::int64_t samples = 0;
  oracle.run_sampled(horizon, dt, [&](double, const TypeCountState& s) {
    ++samples;
    const std::int64_t n = std::min(cap, s.total_peers());
    occ.pmf[static_cast<std::size_t>(n)] += 1.0;
    for (std::size_t m = 0; m < s.num_types(); ++m) {
      occ.type_means[m] += static_cast<double>(s.count(m));
    }
  });
  for (auto& p : occ.pmf) p /= static_cast<double>(samples);
  for (auto& m : occ.type_means) m /= static_cast<double>(samples);
  return occ;
}

class OccupancyTest
    : public ::testing::TestWithParam<std::tuple<int, double, double, double>> {
};

TEST_P(OccupancyTest, PmfAndTypeMeansMatchExactSolver) {
  const auto [k, lambda, us, gamma] = GetParam();
  const SwarmParams params(k, us, 1.0, gamma, {{PieceSet{}, lambda}});
  // The truncated state space grows like C(cap + 2^K, 2^K); keep the cap
  // tight enough for the solver while far above the occupied range.
  const std::int64_t cap = k == 1 ? 50 : 25;
  const auto solved = solve_truncated_swarm(params, cap);
  const auto occ =
      simulate_occupancy(params, 77, 500.0, 30000.0, 1.5, cap);

  // Peer-count pmf: compare the head of the distribution (mass > 1%).
  for (std::int64_t n = 0; n <= 12; ++n) {
    const double exact = solved.peer_count_pmf(n);
    if (exact < 0.01) continue;
    EXPECT_NEAR(occ.pmf[static_cast<std::size_t>(n)], exact,
                0.15 * exact + 0.01)
        << "P{N = " << n << "}";
  }
  // Per-type stationary means.
  for_each_subset(PieceSet::full(k), [&](PieceSet c) {
    const double exact = solved.mean_count(c);
    if (exact < 0.05) return;
    EXPECT_NEAR(occ.type_means[c.mask()], exact, 0.2 * exact + 0.03)
        << "E[x_" << c.to_string() << "]";
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OccupancyTest,
    ::testing::Values(
        std::make_tuple(1, 1.0, 2.0, 3.0),
        std::make_tuple(1, 0.5, 1.0, kInfiniteRate),
        std::make_tuple(2, 0.7, 2.0, 3.0),
        std::make_tuple(2, 0.5, 1.5, kInfiniteRate),
        std::make_tuple(2, 1.0, 2.0, 0.8)));  // altruistic branch

TEST(Occupancy, PeerSimMatchesExactSolverToo) {
  // Same check for the per-peer simulator on one configuration.
  const SwarmParams params(2, 2.0, 1.0, 3.0, {{PieceSet{}, 0.7}});
  const std::int64_t cap = 25;
  const auto solved = solve_truncated_swarm(params, cap);

  SwarmSim sim(params, SwarmSimOptions{.rng_seed = 88});
  sim.run_until(500.0);
  std::vector<double> pmf(static_cast<std::size_t>(cap + 1), 0.0);
  std::int64_t samples = 0;
  sim.run_sampled(30000.0, 1.5, [&](double) {
    ++samples;
    pmf[static_cast<std::size_t>(std::min(cap, sim.total_peers()))] += 1.0;
  });
  for (auto& p : pmf) p /= static_cast<double>(samples);
  for (std::int64_t n = 0; n <= 10; ++n) {
    const double exact = solved.peer_count_pmf(n);
    if (exact < 0.01) continue;
    EXPECT_NEAR(pmf[static_cast<std::size_t>(n)], exact, 0.15 * exact + 0.01)
        << "P{N = " << n << "}";
  }
}

TEST(Occupancy, SojournTimeMatchesLittlesLaw) {
  // L = lambda_effective * W: in a stable swarm with gamma < inf every
  // arrival eventually departs, so the effective throughput equals
  // lambda_total and Little's law ties mean population to mean sojourn.
  const auto params = SwarmParams::example1(1.0, 2.0, 1.0, 3.0);
  SwarmSim sim(params, SwarmSimOptions{.rng_seed = 99});
  sim.run_until(500.0);
  OnlineStats n_stats;
  const double horizon = 30000.0;
  sim.run_sampled(horizon, 2.0, [&](double) {
    n_stats.add(static_cast<double>(sim.total_peers()));
  });
  const double mean_n = n_stats.mean();
  const double mean_sojourn = sim.sojourn_stats().mean();
  EXPECT_NEAR(mean_n, params.total_arrival_rate() * mean_sojourn,
              0.1 * mean_n);
}

}  // namespace
}  // namespace p2p
