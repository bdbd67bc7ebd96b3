// The type-count chain's law, checked where it is implemented:
//   * TypeCountLedger, the incremental subset/superset/pair-sum identity
//     the type-count simulator and the monitor both run on, against
//     brute-force sums after every bump and every fused transfer, and
//     its occupancy walk against the occupied types;
//   * TypeCountSim's event accounting and invariants, and the stable,
//     transient and missing-piece regimes;
//   * distributional agreement between TypeCountSim and the enumerated-
//     generator oracle (same CTMC, independent randomness).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/stability.hpp"
#include "core/state.hpp"
#include "ctmc/exact_sampler.hpp"
#include "rand/rng.hpp"
#include "sim/stats.hpp"
#include "sim/typecount_sim.hpp"

namespace p2p {
namespace {

/// sub, sup, S and n^2 - S against direct sums over all type pairs.
void expect_matches_brute_force(const TypeCountLedger& ledger) {
  const TypeCountState& x = ledger.state();
  const std::uint64_t full = ledger.full_mask();
  std::int64_t pair_sum = 0;
  for (std::uint64_t c = 0; c <= full; ++c) {
    std::int64_t sub = 0, sup = 0;
    for (std::uint64_t m = 0; m <= full; ++m) {
      if ((m & ~c) == 0) sub += x.count(m);  // m subseteq c
      if ((c & ~m) == 0) sup += x.count(m);  // c subseteq m
    }
    ASSERT_EQ(ledger.sub(c), sub) << "sub(" << c << ")";
    ASSERT_EQ(ledger.sup(c), sup) << "sup(" << c << ")";
    pair_sum += x.count(c) * sup;  // ordered pairs (c, m), c subseteq m
  }
  ASSERT_EQ(ledger.pair_sum(), pair_sum);
  const std::int64_t n = x.total_peers();
  ASSERT_EQ(ledger.nonsilent_pairs(), n * n - pair_sum);
  // find_occupied visits exactly {c : x_c > 0}, ascending.
  std::vector<std::uint64_t> occupied, visited;
  for (std::uint64_t c = 0; c <= full; ++c) {
    if (x.count(c) > 0) occupied.push_back(c);
  }
  const std::uint64_t none = ledger.find_occupied([&](std::uint64_t c) {
    visited.push_back(c);
    return false;
  });
  ASSERT_EQ(none, x.num_types());
  ASSERT_EQ(visited, occupied);
}

/// A random occupied type, from the ledger's own occupancy walk.
std::uint64_t random_occupied(const TypeCountLedger& ledger, Rng& rng) {
  std::vector<std::uint64_t> occupied;
  ledger.find_occupied([&](std::uint64_t c) {
    occupied.push_back(c);
    return false;
  });
  return occupied[rng.uniform_int(occupied.size())];
}

TEST(TypeCountLedger, IncrementalSumsMatchBruteForceAfterEveryBump) {
  for (const int k : {1, 3, 8, 12}) {
    SCOPED_TRACE("K = " + std::to_string(k));
    TypeCountLedger ledger(k);
    Rng rng(static_cast<std::uint64_t>(100 + k));
    std::vector<std::uint64_t> touched;
    // The brute force costs O(4^K) per check, so K = 12 gets few bumps.
    const int bumps = k < 12 ? 300 : 16;
    for (int i = 0; i < bumps; ++i) {
      // Half the bumps revisit a touched type, so decrements happen.
      const std::uint64_t mask =
          !touched.empty() && rng.uniform() < 0.5
              ? touched[rng.uniform_int(touched.size())]
              : rng.uniform_int(ledger.full_mask() + 1);
      // +-1 or +-n; a decrement never takes the count below zero.
      const std::int64_t size =
          rng.uniform() < 0.5
              ? 1
              : 2 + static_cast<std::int64_t>(rng.uniform_int(40));
      const std::int64_t have = ledger.state().count(mask);
      const std::int64_t delta = rng.uniform() < 0.5 && have > 0
                                     ? -std::min(size, have)
                                     : size;
      ledger.bump(mask, delta);
      touched.push_back(mask);
      ASSERT_NO_FATAL_FAILURE(expect_matches_brute_force(ledger))
          << "after bump " << i << " (x_" << mask << " += " << delta << ")";
    }
  }
}

TEST(TypeCountLedger, FusedTransfersMatchBruteForceBetweenBumps) {
  for (const int k : {1, 3, 8, 12}) {
    SCOPED_TRACE("K = " + std::to_string(k));
    TypeCountLedger ledger(k);
    Rng rng(static_cast<std::uint64_t>(200 + k));
    const int steps = k < 12 ? 400 : 24;
    int transfers = 0;
    for (int i = 0; i < steps; ++i) {
      const bool can_transfer =
          ledger.state().total_peers() > ledger.state().seeds();
      if (can_transfer && rng.uniform() < 0.6) {
        // A non-seed peer downloads one of its missing pieces.
        std::uint64_t from = random_occupied(ledger, rng);
        while (from == ledger.full_mask()) from = random_occupied(ledger, rng);
        const PieceSet missing = PieceSet(from).complement(k);
        const int piece = missing.nth(
            static_cast<int>(rng.uniform_int(
                static_cast<std::uint64_t>(missing.size()))));
        const std::int64_t stay = ledger.state().count(from) - 1;
        ledger.transfer(from, piece);
        ++transfers;
        ASSERT_EQ(ledger.state().count(from), stay);
        ASSERT_NO_FATAL_FAILURE(expect_matches_brute_force(ledger))
            << "after step " << i << " (transfer from " << from
            << ", piece " << piece << ")";
        continue;
      }
      // An arrival batch of a random type, or a departure batch of an
      // occupied one.
      const bool depart = ledger.state().total_peers() > 0 &&
                          rng.uniform() < 0.3;
      const std::uint64_t mask = depart
                                     ? random_occupied(ledger, rng)
                                     : rng.uniform_int(ledger.full_mask() + 1);
      const std::int64_t size =
          1 + static_cast<std::int64_t>(rng.uniform_int(5));
      const std::int64_t delta =
          depart ? -std::min(size, ledger.state().count(mask)) : size;
      ledger.bump(mask, delta);
      ASSERT_NO_FATAL_FAILURE(expect_matches_brute_force(ledger))
          << "after step " << i << " (x_" << mask << " += " << delta << ")";
    }
    EXPECT_GE(transfers, steps / 4);
  }
}

TEST(TypeCountLaw, ArrivalsFollowPoissonRate) {
  const SwarmParams params(2, 0.0, 1.0, 2.0, {{PieceSet{}, 3.0}});
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 1});
  sim.run_until(2000.0);
  // N(0, 2000] ~ Poisson(6000); 5 sigma window.
  EXPECT_NEAR(static_cast<double>(sim.counters().arrivals), 6000.0,
              5.0 * std::sqrt(6000.0));
}

TEST(TypeCountLaw, ConservationOfPeers) {
  const SwarmParams params(3, 0.5, 1.0, 2.0, {{PieceSet{}, 2.0}});
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 2});
  sim.run_until(500.0);
  EXPECT_EQ(sim.total_peers(),
            sim.counters().arrivals - sim.counters().departures);
  EXPECT_GE(sim.total_peers(), 0);
}

TEST(TypeCountLaw, NoSeedsEverWithImmediateDeparture) {
  const SwarmParams params(2, 1.0, 1.0, kInfiniteRate, {{PieceSet{}, 2.0}});
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 3});
  for (int i = 0; i < 20000; ++i) {
    sim.step();
    ASSERT_EQ(sim.peer_seeds(), 0);
  }
}

TEST(TypeCountLaw, SilentContactsAreIntegratedOutNotLost) {
  // Downloads happen, and the silent contacts a per-contact sampler
  // would draw show up in the nominal event count instead of as steps.
  const SwarmParams params(4, 1.0, 1.0, 2.0, {{PieceSet{}, 2.0}});
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 4});
  sim.run_until(300.0);
  EXPECT_GT(sim.counters().downloads, 0);
  EXPECT_EQ(sim.counters().silent_contacts, 0);
  EXPECT_GT(sim.nominal_events(), static_cast<double>(sim.effective_steps()));
}

TEST(ExactGeneratorSamplerDeathTest, SetStateRejectsSeedsWhenImmediate) {
  const SwarmParams params(2, 1.0, 1.0, kInfiniteRate, {{PieceSet{}, 2.0}});
  ExactGeneratorSampler oracle(params, 5);
  TypeCountState bad(2);
  bad.add(PieceSet::full(2), 1);
  EXPECT_DEATH(oracle.set_state(bad), "gamma");
}

TEST(TypeCountLaw, RunSampledEmitsRegularGrid) {
  const SwarmParams params(1, 1.0, 1.0, 2.0, {{PieceSet{}, 1.0}});
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 6});
  std::vector<double> times;
  sim.run_sampled(100.0, 10.0, [&](double t) { times.push_back(t); });
  ASSERT_EQ(times.size(), 10u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(times[i], 10.0 * static_cast<double>(i + 1), 1e-9);
  }
}

// Distributional cross-validation: the type-count simulator and the
// enumerated-generator oracle must agree on E[N] and E[x_F] in a stable
// system (same CTMC, independent randomness).
class SamplerAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SamplerAgreementTest, MeanPopulationsAgree) {
  const auto [k, gamma] = GetParam();
  // Comfortably stable: lambda well below Us/(1 - mu/gamma).
  const SwarmParams params(k, 2.0, 1.0, gamma, {{PieceSet{}, 1.0}});

  const double warmup = 300.0, horizon = 4000.0, dt = 2.0;
  OnlineStats fast_n, fast_seeds;
  TypeCountSim fast(params, TypeCountSimOptions{.rng_seed = 11});
  fast.run_until(warmup);
  fast.run_sampled(horizon, dt, [&](double) {
    fast_n.add(static_cast<double>(fast.total_peers()));
    fast_seeds.add(static_cast<double>(fast.peer_seeds()));
  });

  OnlineStats slow_n, slow_seeds;
  ExactGeneratorSampler slow(params, 12);
  slow.run_until(warmup);
  slow.run_sampled(horizon, dt, [&](double, const TypeCountState& s) {
    slow_n.add(static_cast<double>(s.total_peers()));
    slow_seeds.add(static_cast<double>(s.seeds()));
  });

  // Autocorrelated samples: use a generous tolerance (absolute + relative).
  const double tol_n = 0.15 * std::max(1.0, fast_n.mean());
  EXPECT_NEAR(fast_n.mean(), slow_n.mean(), tol_n);
  const double tol_s = 0.2 * std::max(0.5, fast_seeds.mean());
  EXPECT_NEAR(fast_seeds.mean(), slow_seeds.mean(), tol_s);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SamplerAgreementTest,
    ::testing::Values(std::make_tuple(1, 2.0), std::make_tuple(2, 2.0),
                      std::make_tuple(3, 4.0),
                      std::make_tuple(2, kInfiniteRate)));

TEST(TypeCountLaw, StableSystemStaysBounded) {
  const auto params = SwarmParams::example1(1.0, 1.0, 1.0, 4.0);
  // critical lambda = 1/(1-0.25) = 1.333 > 1: stable.
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 21});
  sim.run_until(5000.0);
  EXPECT_LT(sim.total_peers(), 200);
}

TEST(TypeCountLaw, TransientSystemGrowsLinearly) {
  const auto params = SwarmParams::example1(3.0, 1.0, 1.0, 4.0);
  // critical lambda = 1.333 < 3: transient; excess rate ~ 1.67/unit time.
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 22});
  sim.inject_peers(PieceSet{}, 500);  // one-club start (K=1: empty peers)
  sim.run_until(1000.0);
  EXPECT_GT(sim.total_peers(), 1000);
}

TEST(TypeCountLaw, MissingPieceSyndromeOneClubGrows) {
  // K = 2, transient via missing piece 0. Start with a big one-club
  // (type {1}); the one-club keeps growing.
  const SwarmParams params(2, 0.2, 1.0, kInfiniteRate, {{PieceSet{}, 2.0}});
  ASSERT_EQ(classify(params).verdict, Stability::kTransient);
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 23});
  sim.inject_peers(PieceSet::single(1), 400);
  sim.run_until(500.0);
  EXPECT_GT(sim.state().count(PieceSet::single(1)), 800);
}

}  // namespace
}  // namespace p2p
