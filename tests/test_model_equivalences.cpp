// Law-level equivalences between independent components of the library.
// These are the sharpest correctness checks we have: two systems built
// from different code paths that must realize the *same* stochastic law,
// compared against each other or against a queueing closed form.
#include <gtest/gtest.h>

#include <cmath>

#include "coding/coded_swarm.hpp"
#include "ctmc/stationary.hpp"
#include "sim/stats.hpp"
#include "sim/swarm.hpp"
#include "sim/typecount_sim.hpp"

namespace p2p {
namespace {

// --- K = 1, gamma = infinity is exactly M/M/1 -------------------------
//
// Empty peers cannot help each other; the fixed seed completes one peer
// at a time at rate Us (it always finds a peer needing the piece). So N
// is an M/M/1 queue with arrival lambda and service Us: pi(n) =
// (1-rho) rho^n.

TEST(Equivalence, K1ImmediateDepartureIsMM1Geometric) {
  const double lambda = 0.6, us = 1.0;
  const auto params = SwarmParams::example1(lambda, us, 1.0, kInfiniteRate);
  const auto solved = solve_truncated_swarm(params, 80);
  const double rho = lambda / us;
  for (int n = 0; n < 20; ++n) {
    EXPECT_NEAR(solved.peer_count_pmf(n), (1 - rho) * std::pow(rho, n),
                1e-6)
        << "P{N = " << n << "}";
  }
  EXPECT_NEAR(solved.mean_peers(), rho / (1 - rho), 1e-4);
}

TEST(Equivalence, K1ImmediateDepartureSimulatorMatchesMM1Mean) {
  const double lambda = 0.5, us = 1.0;
  const auto params = SwarmParams::example1(lambda, us, 1.0, kInfiniteRate);
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 7});
  sim.run_until(500.0);
  OnlineStats n_stats;
  sim.run_sampled(40000.0, 2.0, [&](double) {
    n_stats.add(static_cast<double>(sim.total_peers()));
  });
  EXPECT_NEAR(n_stats.mean(), 0.5 / 0.5, 0.1);  // rho/(1-rho) = 1
}

// --- K = 1 with dwell is M/M/1 + M/M/inf tandem-like closed balance ---
//
// Not a textbook form, but the truncated solver gives the exact answer;
// the downloaders' completion rate seen from the solver must equal
// lambda in steady state (flow balance), and seeds must satisfy
// gamma E[x_F] = lambda (every peer passes through seedhood once).

TEST(Equivalence, K1DwellFlowBalance) {
  const auto params = SwarmParams::example1(1.0, 2.0, 1.0, 3.0);
  const auto solved = solve_truncated_swarm(params, 80);
  // gamma E[x_F] = throughput = lambda.
  EXPECT_NEAR(3.0 * solved.mean_count(PieceSet::full(1)), 1.0, 5e-3);
}

TEST(Equivalence, ThroughputEqualsArrivalRateAcrossK) {
  // Flow balance generalizes: in any stable configuration with finite
  // gamma, gamma E[x_F] = lambda_total. (Truncation caps chosen so the
  // state space stays solvable: C(cap + 2^K, 2^K) states.)
  for (const int k : {1, 2, 3}) {
    const SwarmParams params(k, 2.5, 1.0, 2.0, {{PieceSet{}, 0.5}});
    const std::int64_t cap = k == 1 ? 60 : k == 2 ? 22 : 10;
    const auto solved = solve_truncated_swarm(params, cap);
    EXPECT_NEAR(2.0 * solved.mean_count(PieceSet::full(k)), 0.5, 0.03)
        << "K = " << k;
  }
}

// --- Coded K = 1 over GF(2) is the uncoded chain with thinned rates ---
//
// A coded "piece" for K = 1 is a scalar in F_2: an upload is useful iff
// the scalar is 1 (probability 1/2). So the coded system with (Us, mu)
// has exactly the law of the uncoded K = 1 system with (Us/2, mu/2) —
// same arrivals, same gamma.

TEST(Equivalence, CodedK1Gf2IsThinnedUncodedK1) {
  const double lambda = 0.7, us = 2.0, mu = 1.0, gamma = 2.0;

  CodedSwarmParams coded;
  coded.num_pieces = 1;
  coded.field_size = 2;
  coded.seed_rate = us;
  coded.contact_rate = mu;
  coded.seed_depart_rate = gamma;
  coded.arrivals = {{lambda, 0}};
  CodedSwarmSim coded_sim(coded, 21);
  coded_sim.run_until(500.0);
  OnlineStats coded_n, coded_seeds;
  coded_sim.run_sampled(30000.0, 2.0, [&](double) {
    coded_n.add(static_cast<double>(coded_sim.total_peers()));
    coded_seeds.add(static_cast<double>(coded_sim.peer_seeds()));
  });

  const auto thinned =
      SwarmParams::example1(lambda, us / 2, mu / 2, gamma);
  const auto solved = solve_truncated_swarm(thinned, 60);

  EXPECT_NEAR(coded_n.mean(), solved.mean_peers(),
              0.1 * solved.mean_peers());
  EXPECT_NEAR(coded_seeds.mean(), solved.mean_count(PieceSet::full(1)),
              0.15 * solved.mean_count(PieceSet::full(1)) + 0.02);
}

// --- Retry boost eta on an all-silent system is a pure time rescale ---

TEST(Equivalence, BoostOnAlwaysUsefulSystemChangesNothing) {
  // K = 1 again: contacts by *incomplete* peers are always silent, and
  // those peers' boost does not affect anyone else; contacts by seeds in
  // a crowd of empty peers are almost always useful, so eta barely moves
  // a stable operating point that has few seed-to-seed collisions.
  const auto params = SwarmParams::example1(0.5, 2.0, 1.0, kInfiniteRate);
  // gamma = inf: completed peers leave instantly; there are NO peer
  // seeds, so peer ticks are all silent and eta is provably irrelevant
  // to the dynamics (only the fixed seed moves pieces).
  OnlineStats plain_n, boosted_n;
  {
    SwarmSimOptions options;
    options.rng_seed = 31;
    SwarmSim sim(params, std::make_unique<RandomUsefulPolicy>(), options);
    sim.run_until(300.0);
    sim.run_sampled(20000.0, 2.0, [&](double) {
      plain_n.add(static_cast<double>(sim.total_peers()));
    });
  }
  {
    SwarmSimOptions options;
    options.rng_seed = 32;
    options.retry_boost = 8.0;
    SwarmSim sim(params, std::make_unique<RandomUsefulPolicy>(), options);
    sim.run_until(300.0);
    sim.run_sampled(20000.0, 2.0, [&](double) {
      boosted_n.add(static_cast<double>(sim.total_peers()));
    });
  }
  EXPECT_NEAR(plain_n.mean(), boosted_n.mean(),
              0.12 * std::max(1.0, plain_n.mean()));
}

}  // namespace
}  // namespace p2p
