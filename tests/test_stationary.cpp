// Truncated stationary solver: validated on birth–death chains with known
// closed forms (M/M/1, M/M/infinity) and cross-validated against long
// simulations of the swarm chain for K = 1 and K = 2.
#include "ctmc/stationary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "sim/stats.hpp"
#include "sim/typecount_sim.hpp"

namespace p2p {
namespace {

FiniteCtmc birth_death(int cap, const std::function<double(int)>& birth,
                       const std::function<double(int)>& death) {
  FiniteCtmc chain;
  chain.num_states = cap + 1;
  for (int i = 0; i < cap; ++i) {
    if (birth(i) > 0) chain.edges.push_back({i, i + 1, birth(i)});
  }
  for (int i = 1; i <= cap; ++i) {
    if (death(i) > 0) chain.edges.push_back({i, i - 1, death(i)});
  }
  return chain;
}

TEST(Stationary, MM1IsGeometric) {
  const double lambda = 0.6, mu = 1.0;
  const auto chain = birth_death(
      60, [&](int) { return lambda; }, [&](int) { return mu; });
  const auto pi = stationary_distribution(chain);
  const double rho = lambda / mu;
  for (int i = 0; i < 20; ++i) {
    EXPECT_NEAR(pi[static_cast<std::size_t>(i)],
                (1 - rho) * std::pow(rho, i), 1e-6)
        << "state " << i;
  }
}

TEST(Stationary, MMInfIsPoisson) {
  const double lambda = 3.0, mu = 1.0;
  const auto chain = birth_death(
      40, [&](int) { return lambda; },
      [&](int i) { return mu * static_cast<double>(i); });
  const auto pi = stationary_distribution(chain);
  double expected = std::exp(-lambda);
  for (int i = 0; i < 15; ++i) {
    EXPECT_NEAR(pi[static_cast<std::size_t>(i)], expected, 1e-6)
        << "state " << i;
    expected *= lambda / static_cast<double>(i + 1);
  }
}

TEST(Stationary, TwoStateChainExact) {
  FiniteCtmc chain;
  chain.num_states = 2;
  chain.edges = {{0, 1, 2.0}, {1, 0, 3.0}};
  const auto pi = stationary_distribution(chain);
  EXPECT_NEAR(pi[0], 0.6, 1e-10);
  EXPECT_NEAR(pi[1], 0.4, 1e-10);
}

TEST(Stationary, DistributionSumsToOneAndNonnegative) {
  const auto chain = birth_death(
      30, [&](int i) { return 1.0 + 0.1 * i; },
      [&](int i) { return 0.5 * i * i; });
  const auto pi = stationary_distribution(chain);
  double total = 0;
  for (double p : pi) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(TruncatedSwarm, K1MatchesSimulatedMean) {
  // K = 1, stable: lambda = 1 < Us/(1-mu/gamma) = 2/(1-1/3) = 3.
  const auto params = SwarmParams::example1(1.0, 2.0, 1.0, 3.0);
  const auto solved = solve_truncated_swarm(params, /*max_peers=*/80);
  ASSERT_GT(solved.states.size(), 100u);

  OnlineStats sim_n;
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 41});
  sim.run_until(500.0);
  sim.run_sampled(20000.0, 2.0, [&](double) {
    sim_n.add(static_cast<double>(sim.total_peers()));
  });
  EXPECT_NEAR(solved.mean_peers(), sim_n.mean(),
              0.1 * std::max(1.0, solved.mean_peers()));
}

TEST(TruncatedSwarm, K1PmfMatchesSimulatedOccupancy) {
  const auto params = SwarmParams::example1(0.8, 2.0, 1.0, 3.0);
  const auto solved = solve_truncated_swarm(params, 60);
  // Simulated fraction of time with zero peers.
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 42});
  sim.run_until(500.0);
  std::int64_t zero = 0, total = 0;
  sim.run_sampled(20000.0, 1.0, [&](double) {
    ++total;
    zero += sim.total_peers() == 0;
  });
  EXPECT_NEAR(solved.peer_count_pmf(0),
              static_cast<double>(zero) / static_cast<double>(total), 0.03);
}

TEST(TruncatedSwarm, K2MatchesSimulatedMean) {
  const SwarmParams params(2, 2.0, 1.0, 3.0, {{PieceSet{}, 0.7}});
  const auto solved = solve_truncated_swarm(params, /*max_peers=*/24);

  OnlineStats sim_n;
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 43});
  sim.run_until(500.0);
  sim.run_sampled(20000.0, 2.0, [&](double) {
    sim_n.add(static_cast<double>(sim.total_peers()));
  });
  EXPECT_NEAR(solved.mean_peers(), sim_n.mean(),
              0.12 * std::max(1.0, solved.mean_peers()));
}

TEST(TruncatedSwarm, MeanCountsSumToMeanPeers) {
  const SwarmParams params(2, 2.0, 1.0, 3.0, {{PieceSet{}, 0.7}});
  const auto solved = solve_truncated_swarm(params, 20);
  double sum = 0;
  for_each_subset(PieceSet::full(2),
                  [&](PieceSet c) { sum += solved.mean_count(c); });
  EXPECT_NEAR(sum, solved.mean_peers(), 1e-9);
}

TEST(TruncatedSwarm, TighterTruncationUnderestimatesOnlySlightly) {
  // For a stable chain the truncated mean converges as the cap grows.
  const auto params = SwarmParams::example1(1.0, 2.0, 1.0, 3.0);
  const double loose = solve_truncated_swarm(params, 80).mean_peers();
  const double tight = solve_truncated_swarm(params, 40).mean_peers();
  EXPECT_NEAR(loose, tight, 0.05 * std::max(1.0, loose));
}

}  // namespace
}  // namespace p2p
