// Uniformization transient solver: closed-form two-state relaxation,
// M/M/1 transient mean against simulation, convergence to the stationary
// solver, and exact E[N_t] for the truncated swarm chain vs the
// simulators.
#include "ctmc/transient_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats.hpp"
#include "sim/typecount_sim.hpp"

namespace p2p {
namespace {

TEST(Transient, TwoStateClosedForm) {
  // 0 -> 1 at rate a, 1 -> 0 at rate b: P{X_t = 1 | X_0 = 0} =
  // a/(a+b) (1 - e^{-(a+b)t}).
  const double a = 2.0, b = 3.0;
  FiniteCtmc chain;
  chain.num_states = 2;
  chain.edges = {{0, 1, a}, {1, 0, b}};
  const TransientSolver solver(chain);
  for (const double t : {0.0, 0.1, 0.5, 1.0, 3.0}) {
    const auto dist = solver.distribution_at({1.0, 0.0}, t);
    const double expected = a / (a + b) * (1.0 - std::exp(-(a + b) * t));
    EXPECT_NEAR(dist[1], expected, 1e-9) << "t = " << t;
    EXPECT_NEAR(dist[0] + dist[1], 1.0, 1e-12);
  }
}

TEST(Transient, ConvergesToStationary) {
  FiniteCtmc chain;
  chain.num_states = 3;
  chain.edges = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 0.5}, {1, 0, 0.3}};
  const TransientSolver solver(chain);
  const auto pi = stationary_distribution(chain);
  const auto late = solver.distribution_at({1.0, 0.0, 0.0}, 200.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(late[static_cast<std::size_t>(i)],
                pi[static_cast<std::size_t>(i)], 1e-8);
  }
}

TEST(Transient, MMInfTransientMeanIsLambdaOverMuTimesRelaxation) {
  // M/M/inf from empty: E[N_t] = (lambda/mu)(1 - e^{-mu t}).
  const double lambda = 2.0, mu = 0.5;
  const int cap = 40;
  FiniteCtmc chain;
  chain.num_states = cap + 1;
  for (int i = 0; i < cap; ++i) chain.edges.push_back({i, i + 1, lambda});
  for (int i = 1; i <= cap; ++i) {
    chain.edges.push_back({i, i - 1, mu * i});
  }
  const TransientSolver solver(chain);
  std::vector<double> initial(static_cast<std::size_t>(cap + 1), 0.0);
  initial[0] = 1.0;
  std::vector<double> values(static_cast<std::size_t>(cap + 1));
  for (int i = 0; i <= cap; ++i) {
    values[static_cast<std::size_t>(i)] = i;
  }
  for (const double t : {0.5, 1.0, 2.0, 5.0, 20.0}) {
    const double expected = lambda / mu * (1.0 - std::exp(-mu * t));
    EXPECT_NEAR(solver.expectation_at(initial, values, t), expected, 1e-6)
        << "t = " << t;
  }
}

TEST(Transient, SwarmK1MeanTrajectoryMatchesSimulation) {
  // Exact E[N_t] for the truncated K = 1 chain vs replica means of the
  // type-count simulator started empty.
  const auto params = SwarmParams::example1(1.0, 2.0, 1.0, 3.0);
  const auto truncated = solve_truncated_swarm(params, 60);
  const TransientSolver solver(truncated.ctmc);

  std::vector<double> initial(truncated.states.size(), 0.0);
  // State 0 is the empty state (BFS root).
  ASSERT_EQ(truncated.states[0].total_peers(), 0);
  initial[0] = 1.0;
  std::vector<double> values(truncated.states.size());
  for (std::size_t i = 0; i < truncated.states.size(); ++i) {
    values[i] = static_cast<double>(truncated.states[i].total_peers());
  }

  for (const double t : {2.0, 5.0, 15.0, 40.0}) {
    const double exact = solver.expectation_at(initial, values, t);
    OnlineStats sim_mean;
    for (std::uint64_t rep = 0; rep < 400; ++rep) {
      TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 100 + rep});
      sim.run_sampled(t, t, [&](double) {
        sim_mean.add(static_cast<double>(sim.total_peers()));
      });
    }
    EXPECT_NEAR(sim_mean.mean(), exact, 6.0 * sim_mean.sem() + 0.05)
        << "t = " << t;
  }
}

TEST(Transient, ZeroTimeReturnsInitial) {
  FiniteCtmc chain;
  chain.num_states = 2;
  chain.edges = {{0, 1, 1.0}, {1, 0, 1.0}};
  const TransientSolver solver(chain);
  const auto dist = solver.distribution_at({0.25, 0.75}, 0.0);
  EXPECT_NEAR(dist[0], 0.25, 1e-12);
  EXPECT_NEAR(dist[1], 0.75, 1e-12);
}

TEST(Transient, LargeTimeUsesLogWeights) {
  // a = Lambda t > 700 exercises the log-space Poisson weights.
  FiniteCtmc chain;
  chain.num_states = 2;
  chain.edges = {{0, 1, 2.0}, {1, 0, 3.0}};
  const TransientSolver solver(chain);
  const auto dist = solver.distribution_at({1.0, 0.0}, 500.0);
  EXPECT_NEAR(dist[1], 2.0 / 5.0, 1e-6);
}

}  // namespace
}  // namespace p2p
