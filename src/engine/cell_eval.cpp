#include "engine/cell_eval.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "analysis/confidence.hpp"
#include "core/fluid.hpp"
#include "core/model.hpp"
#include "ctmc/stationary.hpp"
#include "sim/swarm.hpp"
#include "sim/typecount_sim.hpp"
#include "util/assert.hpp"

namespace p2p::engine {

namespace {

constexpr const char* kAxisNames[] = {"lambda", "us",    "mu",
                                      "gamma",  "k",     "eta",
                                      "flash",  "mix",   "hetero"};

bool known_axis(const std::string& name) {
  for (const char* known : kAxisNames) {
    if (name == known) return true;
  }
  return false;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t sm =
      seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(index) + 1));
  return splitmix64(sm);
}

/// True when the truncated chain for (K, cap) fits the solver's budget:
/// the state count grows like C(cap + 2^K, 2^K), so a cap that is cheap
/// at K = 1 (a few thousand states) is billions of states at K = 3.
/// Intractable cells skip the solve (NaN column, like the K gate) rather
/// than hanging the sweep.
bool ctmc_tractable(int k, std::int64_t cap) {
  const int types = 1 << k;  // k <= kCtmcMaxPieces, so at most 8
  double states = 1;
  for (int i = 1; i <= types; ++i) {
    states *= static_cast<double>(cap + i) / static_cast<double>(i);
    if (states > SweepOptions::kCtmcMaxStates) return false;
  }
  return true;
}

/// Fluid-limit verdict of one cell: integrate the mean-field ODE
/// (core/fluid.hpp) from a large one-club point mass and sign the growth
/// of the club coordinate over the later half of the horizon. The fluid
/// one-club growth rate converges to Delta_S — the quantity Theorem 1
/// signs (bench/bench_fluid_limit.cpp pins the agreement numerically) —
/// so a swelling club is the transience signature and a shrinking or
/// drained club is positive recurrence. Unlike the closed form, the
/// integration needs no mu < gamma restriction, so the verdict covers
/// the altruistic branch too. Deterministic: no RNG, so the report stays
/// byte-identical for any (threads, chunk).
Stability fluid_cell_verdict(const CellParams& p, const SweepOptions& options,
                             const std::vector<ArrivalSpec>& arrivals) {
  constexpr double kClubMass = 5000.0;
  constexpr double kGrowthTol = 1e-3;
  const FluidModel model(SwarmParams(p.k, p.us, p.mu, p.gamma, arrivals));
  const PieceSet club = PieceSet::full(p.k).without(0);
  // Scale the RK4 step with the fastest rate so stiff cells (large mu or
  // gamma) stay inside the stability region of the integrator; the
  // verdict is a sign, not a trajectory, so accuracy beyond that is
  // wasted.
  const double rate_scale =
      std::max({1.0, p.mu, p.us, std::isfinite(p.gamma) ? p.gamma : 1.0});
  const double dt = 0.05 / rate_scale;
  const double half = 0.5 * options.horizon;
  const FluidState mid = model.integrate(model.point_mass(club, kClubMass),
                                         half, dt);
  const FluidState late = model.integrate(mid, half, dt);
  const double growth = (late[club.mask()] - mid[club.mask()]) / half;
  if (growth > kGrowthTol) return Stability::kTransient;
  if (growth < -kGrowthTol) return Stability::kPositiveRecurrent;
  // A strongly stable cell drains the whole club before the first window
  // closes, leaving zero late growth; an (almost) empty club is
  // recurrence, not a borderline call.
  return late[club.mask()] < 0.01 * kClubMass ? Stability::kPositiveRecurrent
                                              : Stability::kBorderline;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base_seed, Stream stream,
                          std::uint64_t a, std::uint64_t b) {
  return mix_seed(mix_seed(mix_seed(base_seed, stream), a), b);
}

namespace {

std::size_t axis_slot(const SweepGrid& grid, const char* name) {
  for (std::size_t i = 0; i < grid.axes.size(); ++i) {
    if (grid.axes[i].name == name) return i;
  }
  P2P_ASSERT_MSG(false, "sweep cell queried for an axis the grid lacks");
  return 0;
}

}  // namespace

AxisSlots resolve_axis_slots(const SweepGrid& grid) {
  AxisSlots s;
  s.lambda = axis_slot(grid, "lambda");
  s.us = axis_slot(grid, "us");
  s.mu = axis_slot(grid, "mu");
  s.gamma = axis_slot(grid, "gamma");
  s.k = axis_slot(grid, "k");
  s.eta = axis_slot(grid, "eta");
  s.flash = axis_slot(grid, "flash");
  s.mix = axis_slot(grid, "mix");
  s.hetero = axis_slot(grid, "hetero");
  return s;
}

void set_cell_axis(CellParams& p, const AxisSlots& s, std::size_t axis,
                   double v) {
  if (axis == s.lambda) {
    p.lambda = v;
  } else if (axis == s.us) {
    p.us = v;
  } else if (axis == s.mu) {
    p.mu = v;
  } else if (axis == s.gamma) {
    p.gamma = v;
  } else if (axis == s.eta) {
    p.eta = v;
  } else if (axis == s.mix) {
    p.mix = v;
  } else if (axis == s.hetero) {
    p.hetero = v;
  } else if (axis == s.k) {
    p.k = static_cast<int>(std::lround(v));
  } else if (axis == s.flash) {
    p.flash = std::llround(v);
  }
}

CellParams cell_params(const AxisSlots& s, const std::vector<double>& v,
                       PolicyKind policy) {
  CellParams p;
  p.policy = policy;
  for (std::size_t axis = 0; axis < v.size(); ++axis) {
    set_cell_axis(p, s, axis, v[axis]);
  }
  return p;
}

ReplicaSample simulate_replica(const CellParams& p,
                               const SweepOptions& options,
                               std::uint64_t seed) {
  ExpandedCell cell = expand(options.scenario, p);
  // Both backends realize the same law on the type-count domain, so the
  // measurement path below sees only the SwarmBackend interface; which
  // concrete simulator runs is the per-cell resolution of
  // SweepOptions::sim_backend (forced out-of-domain choices were
  // rejected up front).
  std::optional<SwarmSim> per_peer;
  std::optional<TypeCountSim> type_count;
  SwarmBackend* sim = nullptr;
  if (resolve_sim_backend(options.sim_backend, p) == SimBackend::kTypeCount) {
    type_count.emplace(
        std::move(cell.params),
        TypeCountSimOptions{cell.sim.tracked_piece, seed});
    sim = &*type_count;
  } else {
    cell.sim.rng_seed = seed;
    per_peer.emplace(std::move(cell.params), cell.sim);
    sim = &*per_peer;
  }
  if (p.flash > 0) {
    sim->inject_peers(PieceSet::full(p.k).without(0), p.flash);
  }
  // The occupancy integral over [warmup, horizon] is the total integral
  // minus the integral at the warmup instant, so no simulator support is
  // needed to discard the empty-start transient.
  double warm_integral = 0, warm_time = 0;
  if (options.warmup > 0) {
    sim->run_until(options.warmup);
    warm_time = sim->now();
    warm_integral = sim->time_averaged_peers() * warm_time;
  }
  sim->run_until(options.horizon);

  ReplicaSample r;
  r.final_peers = static_cast<double>(sim->total_peers());
  // run_until steps whole events, so the warmup run can overshoot past
  // the horizon when the event rate is tiny; a zero-width measurement
  // window then carries no information — report NaN, never a fake 0.
  const double window = sim->now() - warm_time;
  r.mean_peers =
      window > 0
          ? (sim->time_averaged_peers() * sim->now() - warm_integral) / window
          : std::nan("");
  r.mean_sojourn = sim->sojourn_stats().count() > 0
                       ? sim->sojourn_stats().mean()
                       : std::nan("");
  return r;
}

SimAggregate aggregate_samples(std::span<const ReplicaSample> samples,
                               const SweepOptions& options, Rng& rng) {
  const int r = static_cast<int>(samples.size());
  P2P_ASSERT(r >= 1);
  SimAggregate agg;
  agg.replicas = r;

  // Replicas whose measurement window collapsed (NaN mean) carry no
  // time-average information and are excluded, like departure-free
  // replicas are from the sojourn mean.
  std::vector<double> means;
  means.reserve(samples.size());
  double final_sum = 0, sojourn_sum = 0;
  int sojourn_n = 0;
  for (const ReplicaSample& s : samples) {
    if (!std::isnan(s.mean_peers)) means.push_back(s.mean_peers);
    final_sum += s.final_peers;
    if (!std::isnan(s.mean_sojourn)) {
      sojourn_sum += s.mean_sojourn;
      ++sojourn_n;
    }
  }
  agg.final_peers_mean = final_sum / r;
  agg.mean_sojourn =
      sojourn_n > 0 ? sojourn_sum / sojourn_n : std::nan("");

  if (means.size() >= 2) {
    // Replicas are independent, so batch size 1 is the exact iid SEM.
    const BatchMeansResult bm =
        batch_means(means, static_cast<int>(means.size()));
    agg.mean_peers_mean = bm.mean;
    agg.mean_peers_sem = bm.sem;
    const BootstrapResult ci = block_bootstrap(
        means,
        [](std::span<const double> s) {
          double m = 0;
          for (double x : s) m += x;
          return m / static_cast<double>(s.size());
        },
        /*block_length=*/1, options.bootstrap_resamples, options.confidence,
        rng);
    agg.mean_peers_lo = ci.lower;
    agg.mean_peers_hi = ci.upper;
  } else if (means.size() == 1) {
    agg.mean_peers_mean = means[0];
    // SEM/CI stay NaN: one trajectory carries no uncertainty estimate.
  }
  return agg;
}

void validate_caller_axes(const SweepGrid& grid) {
  for (const auto& axis : grid.axes) {
    P2P_ASSERT_MSG(known_axis(axis.name),
                   "unknown sweep axis (valid: lambda, us, mu, gamma, k, "
                   "eta, flash, mix, hetero; got \"" +
                       axis.name + "\")");
    P2P_ASSERT_MSG(!axis.values.empty(),
                   "sweep axis has no values (axis \"" + axis.name + "\")");
  }
}

void validate_effective_axes(const SweepGrid& effective,
                             const SweepOptions& options) {
  // check_cell_scenario's pairing checks, once per grid instead of per
  // cell: every cell's mix and k come from the values checked below.
  P2P_ASSERT_MSG(
      options.scenario.empty() == (options.scenario.num_pieces == 0),
      "scenario mix and piece count must be set together");
  for (const auto& axis : effective.axes) {
    for (const double v : axis.values) {
      if (axis.name != "gamma") {  // inf = immediate departure
        P2P_ASSERT_MSG(std::isfinite(v),
                       "only the gamma axis may take inf values");
      }
      if (axis.name == "eta") {
        P2P_ASSERT_MSG(v >= 1.0,
                       "axis eta must be >= 1 (Section VIII-C retry boost)");
      }
      if (axis.name == "k") {
        P2P_ASSERT_MSG(v >= 1 && std::abs(v - std::lround(v)) < 1e-9,
                       "axis k must take positive integer values");
        P2P_ASSERT_MSG(
            !options.fluid || v <= SweepOptions::kFluidMaxPieces,
            "the fluid verdict integrates a dense 2^k-state ODE per cell "
            "(k <= " +
                std::to_string(SweepOptions::kFluidMaxPieces) +
                "), but axis k takes the value " + format_number(v) +
                "; shrink k or drop --fluid");
        P2P_ASSERT_MSG(
            options.scenario.empty() ||
                std::lround(v) == options.scenario.num_pieces,
            "axis k must equal the scenario's piece count (mix \"" +
                options.scenario.name + "\" is defined over K = " +
                std::to_string(options.scenario.num_pieces) + ")");
      }
      if (axis.name == "flash") {
        P2P_ASSERT_MSG(v >= 0 && std::abs(v - std::llround(v)) < 1e-9,
                       "axis flash must take nonnegative integer values");
      }
      if (axis.name == "mix") {
        P2P_ASSERT_MSG(v >= 0 && v <= 1, "axis mix must lie in [0, 1]");
        P2P_ASSERT_MSG(v == 0 || !options.scenario.empty(),
                       "axis mix needs a named scenario (--mix) to "
                       "interpolate toward");
      }
      if (axis.name == "hetero") {
        P2P_ASSERT_MSG(v >= 0 && v < 1,
                       "axis hetero must lie in [0, 1) (slow multiplier "
                       "1 - h must stay positive)");
      }
    }
  }
}

void validate_options(const SweepOptions& options) {
  P2P_ASSERT_MSG(options.threads >= 1, "sweep threads must be >= 1");
  P2P_ASSERT_MSG(options.horizon > 0, "sweep horizon must be positive");
  P2P_ASSERT_MSG(options.warmup >= 0 && options.warmup < options.horizon,
                 "warmup must lie in [0, horizon)");
  P2P_ASSERT_MSG(options.replicas >= 1, "replicas must be >= 1");
  P2P_ASSERT_MSG(options.confidence > 0 && options.confidence < 1,
                 "confidence must lie in (0, 1)");
  P2P_ASSERT_MSG(options.bootstrap_resamples >= 10,
                 "bootstrap resamples must be >= 10");
}

SweepGrid effective_grid(const SweepGrid& grid) {
  SweepGrid effective = default_region_grid();
  for (const auto& axis : grid.axes) effective.set_axis(axis);
  return effective;
}

void fill_cell(CellResult& r, std::size_t cell, const CellParams& p,
               const SweepOptions& options,
               std::vector<ArrivalSpec>& arrival_scratch) {
  // Every other field is assigned unconditionally below; these two are
  // only written when their solve/aggregation runs, so a recycled slot
  // (or the chunk path's reused local) must see them reset.
  r.sim = SimAggregate{};
  r.ctmc_mean_peers = std::nan("");
  r.fluid = Stability::kBorderline;
  r.backend = resolve_sim_backend(options.sim_backend, p);
  r.index = cell;
  r.lambda = p.lambda;
  r.us = p.us;
  r.mu = p.mu;
  r.gamma = p.gamma;
  r.k = p.k;
  r.eta = p.eta;
  r.flash = p.flash;
  r.mix = p.mix;
  r.hetero = p.hetero;
  // Unchecked: validate_effective_axes vetted the scenario pairing once
  // per grid, so a scenario-free cell is one push of {empty, lambda}.
  expand_arrivals(options.scenario, p, arrival_scratch);
  r.theory = classify(SwarmParamsView{p.k, p.us, p.mu, p.gamma,
                                      arrival_scratch});
  if (options.fluid) {
    r.fluid = fluid_cell_verdict(p, options, arrival_scratch);
  }
  // The truncated chain is the *homogeneous RandomUseful* law: under a
  // retry boost, a rate spread or a non-baseline selection policy its
  // stationary mean is not the answer the simulator approaches, so the
  // column stays NaN rather than posing as an exact cross-check. Typed
  // mixes are fine — the chain is typed by nature.
  if (options.ctmc_max_peers > 0 && p.k <= SweepOptions::kCtmcMaxPieces &&
      p.eta == 1 && p.hetero == 0 &&
      p.policy == PolicyKind::kRandomUseful &&
      ctmc_tractable(p.k, options.ctmc_max_peers)) {
    r.ctmc_mean_peers =
        solve_truncated_swarm(
            SwarmParams(p.k, p.us, p.mu, p.gamma, arrival_scratch),
            options.ctmc_max_peers)
            .mean_peers();
  }
}

}  // namespace p2p::engine
