// p2p_sweep: parallel scenario sweeps over the Zhu–Hajek parameter space.
//
// Fans independent (cell, replica) work items — each one SwarmSim run,
// plus the Theorem-1 closed form and optionally a truncated-CTMC
// stationary solve per cell — across a fixed thread pool and emits one
// CSV/JSON row per cell with replica-mean / SEM / bootstrap-CI columns.
// Per-replica RNG streams are derived from (seed, cell, replica), so the
// report is byte-identical for any --threads value.
//
//   # 256-cell Theorem-1 stability region (lambda x Us phase diagram),
//   # 8 replicas per cell with 95% CIs:
//   $ ./p2p_sweep --grid lambda=0.5:3.0:16 --replicas 8 --threads 8 \
//       --out region.csv
//
//   # Custom slice: dwell-rate axis with an immediate-departure endpoint,
//   # exact E[N] cross-check for K = 2:
//   $ ./p2p_sweep --grid "k=2;gamma=0.5,1.25,5,inf;lambda=0.5:2.5:9" \
//       --ctmc-cap 30 --format json
//
//   # Boundary refinement: bisect the Theorem-1 verdict flip along
//   # lambda (to +-0.01) for each Us in the coarse grid, then simulate
//   # 8 replicas at each localized frontier point:
//   $ ./p2p_sweep --grid "k=1;us=0.4:1.6:7;lambda=1:9:5" \
//       --refine lambda:0.01 --replicas 8 --warmup 100 --out frontier.csv
//
//   # Typed-arrival mix: interpolate the arrival composition from the
//   # empty-arrival stream (mix=0) to Example 2's paired-halves mix at
//   # weights 3:1 (mix=1), and localize the verdict flip along mix:
//   $ ./p2p_sweep --mix example2:3,1 \
//       --grid "us=1;gamma=inf;lambda=2;mix=0:1:5" \
//       --refine mix:0.001 --replicas 8 --out mix_frontier.csv
//
//   # Million-cell Theorem-1 phase diagram, closed form only (no sim):
//   # the grid streams to disk as it completes, memory stays bounded.
//   $ ./p2p_sweep --grid "lambda=0.5:3.0:1000;us=0.2:1.7:1000" \
//       --theory-only --threads 8 --out region_1e6.csv
//
//   # Adaptive multi-resolution refinement: start from a coarse vertex
//   # lattice, subdivide only boxes whose corner verdicts disagree, down
//   # to 2^4 times the coarse resolution — frontier-area cost instead of
//   # volume cost, with a savings digest in the summary JSON:
//   $ ./p2p_sweep --grid "lambda=0.5:3.0:5;us=0.2:1.7:5" --adaptive 4 \
//       --theory-only --out region_adaptive.csv --summary adaptive.json
//
//   # Theorem-14 policy check: sweep the same grid under rarest-first
//   # selection with the fluid-limit verdict column alongside:
//   $ ./p2p_sweep --grid "k=2;lambda=0.5:2.5:9" --policy rarest --fluid \
//       --replicas 4 --out rarest.csv
//
// Unspecified axes keep the default region grid's values (lambda and Us
// 16-point linspaces, mu = 1, gamma = 1.25, K = 3, eta = 1, flash = 0,
// mix = 0, hetero = 0); naming an axis in --grid replaces just that
// axis. --mix names the scenario the mix/hetero axes act on (example2,
// example3, oneclub:K) and, unless the grid says otherwise, pins the k
// axis to the scenario's piece count and the mix axis to 1. Workers
// claim --chunk items per lock acquisition (0 = auto); output is
// byte-identical for any --threads/--chunk combination.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "engine/refine.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "util/flags.hpp"
#include "verdict_json.hpp"

namespace {

/// The adaptive run's machine-readable digest: the savings accounting
/// (vertices evaluated vs the dense-equivalent fine lattice) CI diffs
/// against a committed golden. Key order and number spellings are
/// deterministic.
std::string adaptive_summary_json(
    const p2p::engine::AdaptiveSummary& summary,
    const p2p::engine::AdaptiveOptions& adaptive, int replicas) {
  std::string out;
  p2p::JsonWriter json(out);
  json.begin_block_object().key("mode").string("adaptive");
  json.key("max_depth").integer(adaptive.max_depth);
  json.key("tol").number(adaptive.tol);
  json.key("sim_threshold").number(adaptive.sim_threshold);
  json.key("max_sim_rounds").integer(adaptive.max_sim_rounds);
  json.key("replicas").integer(replicas).key("boxes").integer(summary.boxes);
  json.key("evaluated").integer(summary.evaluated);
  json.key("simulated").integer(summary.simulated);
  json.key("escalated").integer(summary.escalated);
  json.key("max_depth_reached").integer(summary.max_depth_reached);
  json.key("dense_equivalent").integer(summary.dense_equivalent);
  json.key("evaluated_fraction")
      .number(static_cast<double>(summary.evaluated) /
              static_cast<double>(summary.dense_equivalent));
  const std::size_t verdicts[3] = {summary.stable, summary.transient,
                                   summary.borderline};
  p2p::per_verdict(json, "verdicts", verdicts).end_object();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;
  using namespace p2p::engine;

  Flags flags(argc, argv);
  const std::string grid_spec = flags.get_string(
      "grid", "",
      "';'-separated axes (name=lo:hi:count | name=v1,v2 | name=v) "
      "overriding the default region grid");
  const int threads_flag =
      flags.get_int("threads", 0, "worker threads (0 = all hardware cores)");
  const int chunk_flag = flags.get_int(
      "chunk", 0,
      "work items claimed per pool lock (0 = auto ~ items/(64*threads)); "
      "any value gives byte-identical output");
  const bool theory_only = flags.get_bool(
      "theory-only", false,
      "skip all simulation: Theorem-1 columns only (sim columns NaN, "
      "replicas 0) — million-cell phase diagrams in seconds");
  const double horizon =
      flags.get_double("horizon", 400.0, "simulated time per replica");
  const double warmup = flags.get_double(
      "warmup", 0.0, "simulated time discarded from time averages");
  const int seed = flags.get_int("seed", 1, "root RNG seed");
  const int replicas = flags.get_int(
      "replicas", 1, "independent SwarmSim replicas per cell");
  const double confidence = flags.get_double(
      "confidence", 0.95, "confidence level of the replica-mean CI");
  const int flash = flags.get_int(
      "flash", 0,
      "one-club peers injected into every cell at t=0 (shorthand for a "
      "single-value flash axis)");
  const std::string mix_spec = flags.get_string(
      "mix", "",
      "typed-arrival scenario for the mix/hetero axes: example2[:w12,w34] "
      "| example3[:w1,w2,w3] | oneclub:K");
  const double hetero = flags.get_double(
      "hetero", 0.0,
      "mean-preserving two-class upload-rate spread in [0,1) (shorthand "
      "for a single-value hetero axis)");
  const int ctmc_cap = flags.get_int(
      "ctmc-cap", 0,
      "truncated-CTMC peer cap for exact E[N] on K<=3 homogeneous cells "
      "(0 = off)");
  const std::string refine_spec = flags.get_string(
      "refine", "",
      "axis:tol — per row, bisect the Theorem-1 verdict flip along axis "
      "to within tol and emit a frontier table instead of the grid");
  const std::string adaptive_spec = flags.get_string(
      "adaptive", "",
      "depth[:tol] — adaptive multi-resolution mode: treat the grid as a "
      "coarse vertex lattice and subdivide only boxes whose corner "
      "verdicts disagree, down to 2^depth times the coarse resolution "
      "(or until every axis width <= tol); emits one row per leaf box "
      "with trailing box_depth/box_uniform/box_ext_* columns");
  const double sim_threshold = flags.get_double(
      "sim-threshold", std::nan(""),
      "adaptive mode: occupancy threshold of the theory/sim decision; "
      "vertices whose bootstrap CI straddles it escalate their replica "
      "budget round by round until the CI clears");
  const int sim_rounds = flags.get_int(
      "sim-rounds", 4,
      "adaptive mode: max replica rounds a CI-straddling vertex may "
      "consume (each round adds --replicas runs)");
  const std::string summary_out = flags.get_string(
      "summary", "",
      "adaptive mode: write the savings digest JSON here ('-' = stdout)");
  const std::string policy_spec = flags.get_string(
      "policy", "random",
      "piece-selection policy the simulator runs: random | rarest | "
      "mostcommon | sequential; non-random policies add a policy column");
  const bool fluid = flags.get_bool(
      "fluid", false,
      "integrate the fluid-limit ODE per cell and emit a fluid_verdict "
      "column next to the Theorem-1 verdict (k <= 8)");
  const std::string backend_spec = flags.get_string(
      "sim-backend", "auto",
      "simulation backend: auto (type-count where its law applies — "
      "eta=1, hetero=0, k<=16 — per-peer otherwise) | perpeer | "
      "typecount; recorded per cell in the sim_backend column");
  const std::string format =
      flags.get_string("format", "csv", "output format: csv | json");
  const std::string out =
      flags.get_string("out", "-", "output path ('-' = stdout)");
  flags.finish();

  if (format != "csv" && format != "json") {
    std::fprintf(stderr, "error: --format must be csv or json\n");
    return 2;
  }

  // run_sweep_stream fills axes missing from the spec from the default
  // region grid, so an empty --grid runs the full 256-cell sweep.
  SweepGrid grid = parse_grid(grid_spec);
  if (flash < 0) {
    // The axis path rejects negatives; the shorthand must not silently
    // run flashless instead.
    std::fprintf(stderr, "error: --flash must be nonnegative\n");
    return 2;
  }
  if (flash > 0) {
    if (grid.find_axis("flash") != nullptr) {
      std::fprintf(stderr,
                   "error: give either --flash or a flash axis, not both\n");
      return 2;
    }
    grid.set_axis(Axis{"flash", {static_cast<double>(flash)}});
  }
  if (hetero < 0 || hetero >= 1) {
    // The axis path rejects out-of-range values; the shorthand must not
    // silently run homogeneous (or die deep in the engine) instead.
    std::fprintf(stderr, "error: --hetero must lie in [0, 1)\n");
    return 2;
  }
  if (hetero > 0) {
    if (grid.find_axis("hetero") != nullptr) {
      std::fprintf(stderr,
                   "error: give either --hetero or a hetero axis, not both\n");
      return 2;
    }
    grid.set_axis(Axis{"hetero", {hetero}});
  }

  if (policy_spec != "random" && policy_spec != "rarest" &&
      policy_spec != "mostcommon" && policy_spec != "sequential") {
    std::fprintf(stderr,
                 "error: --policy must be random, rarest, mostcommon or "
                 "sequential (got \"%s\")\n",
                 policy_spec.c_str());
    return 2;
  }
  const PolicyKind policy = parse_policy(policy_spec);
  if (policy != PolicyKind::kRandomUseful && theory_only) {
    // No simulator runs under --theory-only, so the policy could not
    // take effect; accepting it would look like it did.
    std::fprintf(stderr,
                 "error: --policy applies to simulating sweeps, not "
                 "--theory-only\n");
    return 2;
  }

  SweepOptions options;
  options.fluid = fluid;
  if (!mix_spec.empty()) {
    options.scenario = parse_scenario(mix_spec);
    // Asking for a named mix means running it: pin the k axis to the
    // scenario's piece count and default the mix axis to the full mix —
    // or, when refining along mix, to the whole [0, 1] bracket so the
    // bisection has a coarse pair to scan — unless the grid explicitly
    // says otherwise (a mismatched explicit k axis still aborts in the
    // engine with a message naming the mix).
    const bool refining_mix =
        !refine_spec.empty() && parse_refine(refine_spec).axis == "mix";
    if (grid.find_axis("k") == nullptr) {
      grid.set_axis(
          Axis{"k", {static_cast<double>(options.scenario.num_pieces)}});
    }
    if (grid.find_axis("mix") == nullptr) {
      grid.set_axis(refining_mix ? Axis{"mix", {0.0, 1.0}}
                                 : Axis{"mix", {1.0}});
    }
  } else if (const Axis* mix_axis = grid.find_axis("mix")) {
    for (const double v : mix_axis->values) {
      if (v != 0) {
        std::fprintf(stderr,
                     "error: a nonzero mix axis needs --mix to name the "
                     "scenario it interpolates toward\n");
        return 2;
      }
    }
  }
  options.scenario.policy = policy;
  if (chunk_flag < 0) {
    std::fprintf(stderr, "error: --chunk must be nonnegative (0 = auto)\n");
    return 2;
  }
  SimBackend sim_backend = SimBackend::kAuto;
  if (backend_spec == "perpeer") {
    sim_backend = SimBackend::kPerPeer;
  } else if (backend_spec == "typecount") {
    sim_backend = SimBackend::kTypeCount;
  } else if (backend_spec != "auto") {
    std::fprintf(stderr,
                 "error: --sim-backend must be auto, perpeer or typecount "
                 "(got \"%s\")\n",
                 backend_spec.c_str());
    return 2;
  }
  if (sim_backend != SimBackend::kAuto && theory_only) {
    // No simulator runs under --theory-only; accepting a forced backend
    // would look like the choice took effect.
    std::fprintf(stderr,
                 "error: --sim-backend applies to simulating sweeps, not "
                 "--theory-only\n");
    return 2;
  }
  if (sim_backend == SimBackend::kTypeCount) {
    // Same domain rule the engine enforces, surfaced as a flag error
    // naming the offending axis instead of an abort mid-run. A forced
    // backend never silently changes the law; --sim-backend=auto falls
    // back to the per-peer simulator on such cells instead.
    const std::string violation =
        typecount_domain_violation(grid, options.scenario);
    if (!violation.empty()) {
      std::fprintf(stderr, "error: %s\n", violation.c_str());
      return 2;
    }
  }
  options.horizon = horizon;
  options.warmup = warmup;
  options.base_seed = static_cast<std::uint64_t>(seed);
  options.replicas = replicas;
  options.confidence = confidence;
  options.chunk = static_cast<std::size_t>(chunk_flag);
  options.theory_only = theory_only;
  options.sim_backend = sim_backend;
  options.ctmc_max_peers = static_cast<std::int64_t>(ctmc_cap);
  options.threads = threads_flag > 0
                        ? threads_flag
                        : static_cast<int>(std::max(
                              1u, std::thread::hardware_concurrency()));

  if (adaptive_spec.empty()) {
    // The escalation/summary knobs only act in adaptive mode; silently
    // accepting them would look like they took effect.
    if (std::isfinite(sim_threshold)) {
      std::fprintf(stderr,
                   "error: --sim-threshold applies to --adaptive runs "
                   "only\n");
      return 2;
    }
    if (sim_rounds != 4) {
      std::fprintf(stderr,
                   "error: --sim-rounds applies to --adaptive runs only\n");
      return 2;
    }
    if (!summary_out.empty()) {
      std::fprintf(stderr,
                   "error: --summary applies to --adaptive runs only\n");
      return 2;
    }
  }

  const std::string scenario_note =
      options.scenario.empty()
          ? std::string()
          : " [mix " + options.scenario.name + "]";
  const auto t0 = std::chrono::steady_clock::now();

  if (!adaptive_spec.empty()) {
    if (!refine_spec.empty()) {
      // Two different frontier localizers cannot drive one run.
      std::fprintf(stderr,
                   "error: give either --adaptive or --refine, not both\n");
      return 2;
    }
    if (sim_rounds < 1) {
      std::fprintf(stderr, "error: --sim-rounds must be >= 1\n");
      return 2;
    }
    if (std::isfinite(sim_threshold) && theory_only) {
      // No simulator runs under --theory-only, so no CI exists to
      // straddle the threshold.
      std::fprintf(stderr,
                   "error: --sim-threshold applies to simulating runs, "
                   "not --theory-only\n");
      return 2;
    }
    if (std::isfinite(sim_threshold) && replicas < 2) {
      // A single replica has no bootstrap CI; escalation could never
      // trigger, which would look like the boundary was certain.
      std::fprintf(stderr,
                   "error: --sim-threshold needs --replicas >= 2 for a "
                   "bootstrap CI\n");
      return 2;
    }
    AdaptiveOptions adaptive = parse_adaptive(adaptive_spec);
    adaptive.sim_threshold = sim_threshold;
    adaptive.max_sim_rounds = sim_rounds;
    ReportWriter writer(
        out, format == "json" ? ReportFormat::kJson : ReportFormat::kCsv,
        adaptive_columns(grid, options));
    const AdaptiveSummary summary =
        run_adaptive_stream(grid, options, adaptive, writer);
    writer.finish();
    if (!summary_out.empty()) {
      write_text(summary_out,
                 adaptive_summary_json(summary, adaptive, options.replicas));
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // The savings line: what the run cost against what a dense sweep of
    // the same fine lattice would have.
    std::fprintf(stderr,
                 "p2p_sweep: adaptive depth<=%d (tol %g)%s: %zu leaf boxes "
                 "(%zu stable / %zu transient / %zu borderline), %zu of %zu "
                 "dense-equivalent vertices evaluated (%.1f%%), %zu "
                 "escalated, in %.2fs on %d threads\n",
                 adaptive.max_depth, adaptive.tol, scenario_note.c_str(),
                 summary.boxes, summary.stable, summary.transient,
                 summary.borderline, summary.evaluated,
                 summary.dense_equivalent,
                 100.0 * static_cast<double>(summary.evaluated) /
                     static_cast<double>(summary.dense_equivalent),
                 summary.escalated, elapsed, options.threads);
    return 0;
  }

  if (!refine_spec.empty()) {
    if (ctmc_cap > 0) {
      // The frontier table has no ctmc column; silently accepting the
      // flag would look like the cross-check ran.
      std::fprintf(stderr,
                   "error: --ctmc-cap applies to grid mode only, not "
                   "--refine\n");
      return 2;
    }
    if (theory_only) {
      // The frontier's point is simulating at the localized flip;
      // accepting the flag would emit replica columns that never ran.
      std::fprintf(stderr,
                   "error: --theory-only applies to grid mode only, not "
                   "--refine\n");
      return 2;
    }
    if (fluid) {
      // The frontier table carries no fluid_verdict column; accepting
      // the flag would look like the classifier ran.
      std::fprintf(stderr,
                   "error: --fluid applies to grid mode only, not "
                   "--refine\n");
      return 2;
    }
    // Frontier mode streams like the grid: points go to the writer as
    // their row prefix completes, so a very tall coarse grid never
    // holds more than the pool's claim window in memory. The bytes are
    // identical to the retained-points emitter for any
    // --threads/--chunk combination.
    const RefineOptions refine = parse_refine(refine_spec);
    ReportWriter writer(
        out, format == "json" ? ReportFormat::kJson : ReportFormat::kCsv,
        frontier_columns(options));
    const FrontierSummary summary =
        run_frontier_stream(grid, options, refine, writer);
    writer.finish();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::fprintf(stderr,
                 "p2p_sweep: frontier along %s (tol %g)%s: %zu rows, %zu "
                 "bracketed, %d replicas/point in %.2fs on %d threads\n",
                 refine.axis.c_str(), refine.tol, scenario_note.c_str(),
                 summary.rows, summary.bracketed, options.replicas, elapsed,
                 options.threads);
    return 0;
  }

  // Grid mode streams: rows go to the writer as their prefix completes,
  // so a million-cell sweep never holds more than the pool's claim
  // window in memory. The bytes are identical to the old in-memory
  // emitters for any --threads/--chunk combination.
  ReportWriter writer(
      out, format == "json" ? ReportFormat::kJson : ReportFormat::kCsv,
      sweep_columns(options));
  const SweepSummary summary = run_sweep_stream(grid, options, writer);
  writer.finish();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const std::string replica_note =
      theory_only ? "theory only"
                  : std::to_string(options.replicas) + " replicas";
  std::fprintf(stderr,
               "p2p_sweep: %zu cells%s (%zu stable / %zu transient / %zu "
               "borderline) x %s in %.2fs on %d threads "
               "(%.1f cells/s)\n",
               summary.cells, scenario_note.c_str(), summary.stable,
               summary.transient, summary.borderline, replica_note.c_str(),
               elapsed, options.threads,
               static_cast<double>(summary.cells) / elapsed);
  return 0;
}
