// M0: microbenchmarks for the hot paths of the library (google-benchmark).
#include <benchmark/benchmark.h>

#include <charconv>
#include <vector>

#include "coding/coded_swarm.hpp"
#include "coding/gf.hpp"
#include "coding/subspace.hpp"
#include "core/fluid.hpp"
#include "core/lyapunov.hpp"
#include "core/model.hpp"
#include "ctmc/muinf_chain.hpp"
#include "ctmc/stationary.hpp"
#include "rand/rng.hpp"
#include "sim/event_log.hpp"
#include "sim/swarm.hpp"
#include "sim/typecount_sim.hpp"
#include "util/number_format.hpp"

namespace {

using namespace p2p;

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.exponential(2.0));
}
BENCHMARK(BM_RngExponential);

void BM_SwarmStep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  SwarmParams params(k, 1.0, 1.0, 2.0, {{PieceSet{}, 3.0}});
  SwarmSim sim(params, SwarmSimOptions{.rng_seed = 1});
  sim.run_until(200.0);  // warm to steady state
  for (auto _ : state) benchmark::DoNotOptimize(sim.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwarmStep)->Arg(4)->Arg(16)->Arg(64);

void BM_TypeCountSimStep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  SwarmParams params(k, 1.0, 1.0, 2.0, {{PieceSet{}, 3.0}});
  TypeCountSim sim(params, TypeCountSimOptions{.rng_seed = 1});
  sim.run_until(200.0);
  for (auto _ : state) benchmark::DoNotOptimize(sim.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TypeCountSimStep)->Arg(4)->Arg(8);

void BM_GfMul(benchmark::State& state) {
  const GaloisField gf(static_cast<int>(state.range(0)));
  Rng rng(1);
  const auto a = static_cast<GaloisField::Elem>(
      1 + rng.uniform_int(static_cast<std::uint64_t>(gf.size() - 1)));
  auto b = static_cast<GaloisField::Elem>(
      1 + rng.uniform_int(static_cast<std::uint64_t>(gf.size() - 1)));
  // b carries a loop dependency, so the mul chain cannot be elided; the
  // sink stays outside the loop because GCC 12 miscompiles benchmark's
  // "+m,r" DoNotOptimize asm here at -O3 (clobbers `a` mid-loop; see
  // gcc.gnu.org/PR105519 for the constraint workaround's history).
  for (auto _ : state) {
    b = gf.mul(a, b == 0 ? 1 : b);
  }
  benchmark::DoNotOptimize(b);
}
BENCHMARK(BM_GfMul)->Arg(2)->Arg(16)->Arg(64)->Arg(251);

void BM_LyapunovDrift(benchmark::State& state) {
  const SwarmParams params(static_cast<int>(state.range(0)), 2.0, 1.0, 4.0,
                           {{PieceSet{}, 1.0}});
  const LyapunovFunction w(params, LyapunovFunction::suggest(params));
  TypeCountState heavy(params.num_pieces());
  heavy.add(PieceSet::full(params.num_pieces()).without(0), 10000);
  heavy.add(PieceSet{}, 500);
  for (auto _ : state) benchmark::DoNotOptimize(w.drift(heavy));
}
BENCHMARK(BM_LyapunovDrift)->Arg(2)->Arg(4)->Arg(6);

void BM_FluidDerivative(benchmark::State& state) {
  const SwarmParams params(static_cast<int>(state.range(0)), 2.0, 1.0, 4.0,
                           {{PieceSet{}, 1.0}});
  const FluidModel model(params);
  FluidState y(std::size_t{1} << params.num_pieces(), 3.0);
  for (auto _ : state) benchmark::DoNotOptimize(model.derivative(y));
}
BENCHMARK(BM_FluidDerivative)->Arg(4)->Arg(8)->Arg(12);

void BM_MuInfStep(benchmark::State& state) {
  MuInfChain chain(5, 1.0, 3);
  chain.set_state({100000, 4});
  for (auto _ : state) {
    chain.step();
    benchmark::DoNotOptimize(chain.state().peers);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MuInfStep);

void BM_StationarySolveK1(benchmark::State& state) {
  const auto params = SwarmParams::example1(1.0, 2.0, 1.0, 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_truncated_swarm(params, state.range(0)).mean_peers());
  }
}
BENCHMARK(BM_StationarySolveK1)->Arg(20)->Arg(40)->Unit(
    benchmark::kMillisecond);

void BM_CodedSwarmStep(benchmark::State& state) {
  CodedSwarmParams params;
  params.num_pieces = static_cast<int>(state.range(0));
  params.field_size = 8;
  params.seed_rate = 2.0;
  params.contact_rate = 1.0;
  params.arrivals = {{1.0, 0}};
  CodedSwarmSim sim(params, 5);
  sim.run_until(200.0);
  for (auto _ : state) benchmark::DoNotOptimize(sim.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodedSwarmStep)->Arg(4)->Arg(16);

void BM_SubspaceInsert(benchmark::State& state) {
  const GaloisField gf(16);
  const int k = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Subspace space(gf, k);
    while (!space.complete()) {
      space.insert(random_vector(gf, k, rng));
    }
    benchmark::DoNotOptimize(space.dim());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(
                                                   state.range(0)));
}
BENCHMARK(BM_SubspaceInsert)->Arg(8)->Arg(16)->Arg(32);

// Number printing per call: format_number_to against the
// std::to_chars(double) it reproduces, on two value sets. Arg 0 is
// uniform on [0.2, 8) (margins and axis values); arg 1 the timestamps
// of a K=8 event log at the lambda = 2 frontier (trace_emit's numbers).
std::vector<double> printer_values(std::int64_t set) {
  std::vector<double> values;
  if (set == 0) {
    Rng rng(11);
    for (int i = 0; i < 4096; ++i) values.push_back(0.2 + 7.8 * rng.uniform());
    return values;
  }
  const std::vector<LogSegment> segments = {
      {SwarmParams(8, 1, 1, 2, {{PieceSet{}, 2.0}}), 400}};
  generate_event_log(segments, EventLogOptions{}, [&](const SwarmEvent& e) {
    if (values.size() < 4096) values.push_back(e.t);
  });
  return values;
}

template <typename Print>
void run_printer(benchmark::State& state, Print print) {
  const std::vector<double> values = printer_values(state.range(0));
  char buffer[64];
  std::size_t i = 0;
  for (auto _ : state) {
    char* end = print(buffer, values[i]);
    benchmark::DoNotOptimize(end);
    benchmark::ClobberMemory();
    if (++i == values.size()) i = 0;
  }
}

void BM_FormatNumber(benchmark::State& state) {
  run_printer(state, [](char* out, double v) {
    return format_number_to(out, v);
  });
}
BENCHMARK(BM_FormatNumber)->Arg(0)->Arg(1);

void BM_StdToChars(benchmark::State& state) {
  run_printer(state, [](char* out, double v) {
    return std::to_chars(out, out + 64, v).ptr;
  });
}
BENCHMARK(BM_StdToChars)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
