// bench_swarm: events/sec of the two simulation backends vs swarm size.
//
// The tentpole claim of the type-count refactor is that collapsing
// exchangeable peers into counts per PieceSet type — with silent
// contacts integrated out analytically — turns per-event cost from
// O(1)-per-*nominal*-event into O(1)-per-*state-change*, which near the
// one-club regime is a factor of order n. This harness measures it: a
// one-club swarm pinned at size n (club-typed arrivals at rate Us with
// gamma = inf, so seed-driven completions balance arrivals and the club
// size random-walks around n), simulated by both backends at
// n = 1e3..1e6.
//
// The throughput numerator is the *nominal* event count, so the two
// columns are the same unit: for SwarmSim every step() is one nominal
// event; for TypeCountSim nominal_events() is the unbiased
// Poisson-thinning estimate of the events a per-contact sampler would
// have drawn over the same simulated span. Emits BENCH_swarm.json
// (one row per size plus the headline largest-size speedup);
// experiments/bench_swarm.json archives one run and the CI gate fails a
// PR whose type-count throughput regresses >20% from it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/model.hpp"
#include "engine/report.hpp"
#include "sim/swarm.hpp"
#include "sim/typecount_sim.hpp"
#include "util/assert.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using namespace p2p;

constexpr int kPieces = 4;

struct Measurement {
  std::int64_t swarm_size = 0;
  double per_peer_events_per_sec = 0;
  double typecount_events_per_sec = 0;
  /// Materialized (state-changing) type-count steps per second — the
  /// cost side of the aggregation, next to the nominal-event benefit.
  double typecount_effective_steps_per_sec = 0;
  double speedup = 0;
};

/// The measured model: K = 4, Us = mu = 1, gamma = inf, and the entire
/// arrival stream typed as the one-club set {2, 3, 4} (everything but
/// the tracked piece 1). Injected club members complete only through
/// the fixed seed (rate Us = 1), matching the club arrival rate, so the
/// swarm holds its size for the whole measured window instead of
/// draining — each size's row measures that size.
SwarmParams one_club_params() {
  return SwarmParams(kPieces, 1.0, 1.0, kInfiniteRate,
                     {{PieceSet::full(kPieces).without(0), 1.0}});
}

PieceSet club_type() { return PieceSet::full(kPieces).without(0); }

double time_run(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Per-peer throughput: `events` step() calls, each one nominal event.
/// Best of `repeats` fresh swarms (the minimum elapsed is the
/// least-perturbed sample).
double measure_per_peer(std::int64_t swarm_size, std::int64_t events,
                        int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    SwarmSimOptions options;
    options.rng_seed = 1 + static_cast<std::uint64_t>(r);
    SwarmSim sim(one_club_params(), options);
    sim.inject_peers(club_type(), swarm_size);
    best = std::min(best, time_run([&] {
      for (std::int64_t i = 0; i < events; ++i) P2P_ASSERT(sim.step());
    }));
  }
  return static_cast<double>(events) / best;
}

/// Type-count throughput over `effective_steps` state changes; the
/// numerator is the nominal-event estimate accumulated across them.
Measurement measure_typecount(std::int64_t swarm_size,
                              std::int64_t effective_steps, int repeats) {
  Measurement m;
  m.swarm_size = swarm_size;
  double best = 1e300;
  double nominal = 0;
  for (int r = 0; r < repeats; ++r) {
    TypeCountSimOptions options;
    options.rng_seed = 1 + static_cast<std::uint64_t>(r);
    TypeCountSim sim(one_club_params(), options);
    sim.inject_peers(club_type(), swarm_size);
    const double elapsed = time_run([&] {
      for (std::int64_t i = 0; i < effective_steps; ++i)
        P2P_ASSERT(sim.step());
    });
    if (elapsed < best) {
      best = elapsed;
      nominal = sim.nominal_events();
    }
  }
  m.typecount_events_per_sec = nominal / best;
  m.typecount_effective_steps_per_sec =
      static_cast<double>(effective_steps) / best;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using engine::write_text;

  Flags flags(argc, argv);
  // Per-peer pays O(1) per nominal event, so its budget is an event
  // count; type-count pays per state change, so its budget is an
  // effective-step count. P2P_SMOKE shrinks both so the CTest smoke
  // entry exercises every path in milliseconds.
  const int per_peer_events = flags.get_int(
      "per-peer-events", bench::scaled(4000000, 20000),
      "per-peer step() calls per measurement");
  const int effective_steps = flags.get_int(
      "effective-steps", bench::scaled(200000, 2000),
      "type-count state changes per measurement");
  const int repeats =
      flags.get_int("repeats", bench::scaled(2, 1), "timing repeats (best-of)");
  const std::string out = flags.get_string(
      "out", "BENCH_swarm.json", "machine-readable results path");
  flags.finish();

  std::vector<std::int64_t> sizes = {1000, 10000, 100000, 1000000};
  if (bench::smoke_mode()) sizes = {100, 1000};

  bench::title("E14", "swarm-backend throughput (per-peer vs type-count)",
               "exchangeable-state collapse; sim/typecount_sim.hpp");
  std::printf("one-club swarm, K = %d, Us = mu = 1, gamma = inf; "
              "per-peer best of %d x %d events, type-count best of %d x %d "
              "effective steps\n",
              kPieces, repeats, per_peer_events, repeats, effective_steps);

  bench::section("events/sec vs swarm size");
  std::vector<Measurement> rows;
  for (const std::int64_t n : sizes) {
    Measurement m = measure_typecount(n, effective_steps, repeats);
    m.per_peer_events_per_sec = measure_per_peer(n, per_peer_events, repeats);
    m.speedup = m.typecount_events_per_sec / m.per_peer_events_per_sec;
    rows.push_back(m);
    std::printf("  n %8lld  per-peer %12.0f ev/s  type-count %14.0f ev/s  "
                "(%9.0f eff steps/s)  speedup %8.1fx\n",
                static_cast<long long>(m.swarm_size),
                m.per_peer_events_per_sec, m.typecount_events_per_sec,
                m.typecount_effective_steps_per_sec, m.speedup);
  }

  // Headline: the acceptance figure — the largest swarm's nominal-event
  // throughput ratio. Near the one-club regime the ratio is order n, so
  // this is where the collapse pays or does not.
  const Measurement& top = rows.back();
  std::printf("\nat n = %lld: type-count %.3g ev/s over per-peer %.3g ev/s "
              "= %.0fx\n",
              static_cast<long long>(top.swarm_size),
              top.typecount_events_per_sec, top.per_peer_events_per_sec,
              top.speedup);

  std::string text;
  JsonWriter json(text);
  json.begin_block_object().key("pieces").integer(kPieces);
  json.key("per_peer_events").integer(per_peer_events);
  json.key("effective_steps").integer(effective_steps);
  json.key("repeats").integer(repeats);
  json.key("peak_rss_kb").integer(bench::peak_rss_kb());
  json.key("top_swarm_size").integer(top.swarm_size);
  json.key("top_typecount_events_per_sec").number(top.typecount_events_per_sec);
  json.key("top_speedup").number(top.speedup).key("sizes").begin_block_array();
  for (const Measurement& m : rows) {
    json.begin_object().key("swarm_size").integer(m.swarm_size);
    json.key("per_peer_events_per_sec").number(m.per_peer_events_per_sec);
    json.key("typecount_events_per_sec").number(m.typecount_events_per_sec);
    json.key("typecount_effective_steps_per_sec")
        .number(m.typecount_effective_steps_per_sec);
    json.key("speedup").number(m.speedup).end_object();
  }
  json.end_array().end_object();
  write_text(out, text);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
