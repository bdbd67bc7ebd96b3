// Parameter-grid scenario sweeps over the Zhu–Hajek model.
//
// A sweep is a cartesian grid over the model's parameter axes
// (lambda, us, mu, gamma, k, eta, flash, mix, hetero). The mix and
// hetero axes leave the homogeneous slice: mix interpolates the arrival
// composition between the empty-arrival stream and a named typed mix
// (engine/scenario.hpp), hetero spreads the two-class upload-rate
// multiplier around mean 1. Each grid cell is classified three ways:
//
//   * theory  — Theorem 1 closed form (core/stability.hpp): verdict,
//               stability margin, critical piece;
//   * sim     — R independent SwarmSim replicas to a time horizon
//               (sim/swarm.hpp): final population, exact time-averaged
//               population, mean sojourn of departed peers — aggregated
//               across replicas into mean / SEM / bootstrap-CI columns
//               (analysis/confidence.hpp);
//   * ctmc    — optionally, the truncated-chain stationary E[N]
//               (ctmc/stationary.hpp) for small K, the exact answer the
//               simulator should approach.
//
// Replicas are independent, so the sweep fans the (cell, replica) pairs
// across a fixed thread pool (engine/thread_pool.hpp) in chunks of
// SweepOptions::chunk items per claim — a grid of few cells with large R
// parallelizes just as well as a large grid, and a closed-form-only grid
// of a million tiny cells is not serialized on the claim mutex.
// Determinism contract: every replica derives its RNG stream from
// (base_seed, cell, replica) alone, cells are aggregated and emitted in
// index order as their prefix completes, so the emitted report is
// byte-identical for any --threads and any chunk size.
//
// The grid sweep, the frontier and the adaptive leaves share one
// ordered-evaluation core (run_ordered_blocks, engine/cell_eval.hpp):
// workers evaluate and render claimed blocks into recycled ring slots,
// and the calling thread hands the slots to the ReportWriter in order.
// run_sweep_stream thus streams a grid's rows in O(chunk * threads +
// replicas) memory, not O(num_cells); the report is the only result,
// and tests read its bytes back (CsvReader / parse_report_number).
//
// Boundary refinement (run_frontier_stream) localizes the Theorem-1
// phase boundary instead of rasterizing it: per combination of the
// non-refined axes ("row"), it scans the refined axis's coarse values for
// a verdict flip, bisects the bracket down to a requested tolerance (the
// verdict is closed form, so bisection costs no simulation), and then
// spends the simulation budget only at the localized frontier point — R
// replicas with the same CI aggregation as replica mode.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/stability.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"

namespace p2p::engine {

// --- Report schema (shared writer/reader constants) ---
//
// Both report tables have the shape
//
//   head columns | optional per-type arrival-rate block | tail columns
//
// where the per-type block ("lambda_empty" then one "lambda_t..." column
// per stream of the scenario) appears exactly when a named mix is
// active. The corpus reader (engine/csv_reader.hpp) validates archived
// headers against these same constants, so the writer and the reader
// cannot drift apart silently.

/// Grid-table columns before / after the optional per-type block.
std::span<const char* const> sweep_schema_head();
std::span<const char* const> sweep_schema_tail();

/// Frontier-table columns before / after the optional per-type block.
std::span<const char* const> frontier_schema_head();
std::span<const char* const> frontier_schema_tail();

/// First column of the per-type block, and the prefix of the per-stream
/// columns that follow it.
inline constexpr const char* kLambdaEmptyColumn = "lambda_empty";
inline constexpr const char* kLambdaTypePrefix = "lambda_t";

/// Column name of one typed arrival stream: "lambda_t" + one-based piece
/// indices joined by '.' (e.g. {0,1} -> "lambda_t1.2"). Dots instead of
/// commas keep CSV headers unquoted, so archived corpora stay naively
/// splittable. The reader inverts this with parse_mix_column_type.
std::string mix_column_name(PieceSet type);

// --- Simulation backend selection ---

/// Which simulator runs a cell's replicas. Both backends realize the
/// same stochastic law on the type-count backend's domain; they differ
/// only in representation (sim/backend.hpp):
///
///   kPerPeer   — SwarmSim, per-peer records. Required for eta != 1
///                (the retry boost is per-peer state) and hetero != 0
///                (per-peer rate classes); works everywhere.
///   kTypeCount — TypeCountSim, counts per PieceSet type with silent
///                contacts integrated out analytically. Orders of
///                magnitude faster on large swarms, but only lawful
///                where identical-type peers are exchangeable:
///                eta = 1, hetero = 0 and k <= 16.
///   kAuto      — per cell: kTypeCount where its law applies, kPerPeer
///                otherwise. The default.
enum class SimBackend { kAuto, kPerPeer, kTypeCount };

/// Report token of a *resolved* backend ("perpeer" / "typecount";
/// kAuto never reaches a report row).
const char* to_string(SimBackend backend);

/// True when the type-count backend realizes the cell's law: eta = 1,
/// hetero = 0, k <= 16 (TypeCountState's dense-type limit) and the
/// RandomUseful policy — any other selection breaks the exchangeability
/// of identical-type peers the collapsed state relies on.
bool typecount_in_domain(const CellParams& p);

/// Resolves kAuto by the documented rule; forced choices pass through.
SimBackend resolve_sim_backend(SimBackend requested, const CellParams& p);

/// Trailing report column recording the backend each cell's replicas
/// ran on. Present whenever the table carries simulation columns that
/// a backend actually produced (grid mode without --theory-only, and
/// every frontier table); absent from theory-only grids, so archived
/// closed-form corpora reproduce byte-identically.
inline constexpr const char* kSimBackendColumn = "sim_backend";

/// Trailing report column naming the piece-selection policy the cell's
/// replicas ran (after sim_backend). Present exactly when the table
/// carries simulation columns and the scenario's policy is not the
/// RandomUseful baseline — baseline sweeps keep their historical bytes.
inline constexpr const char* kPolicyColumn = "policy";

/// Trailing report column with the fluid-limit verdict (after the
/// policy column). Present exactly when SweepOptions::fluid is set;
/// archived corpora without it reproduce byte-identically.
inline constexpr const char* kFluidVerdictColumn = "fluid_verdict";

/// One sweep axis: a parameter name and the grid values it takes.
/// Valid names: "lambda" (total arrival rate), "us", "mu", "gamma"
/// ("inf" allowed), "k" (integral piece count), "eta" (Section VIII-C
/// retry boost, >= 1), "flash" (one-club peers injected at t = 0,
/// nonnegative integer), "mix" (arrival-composition interpolation in
/// [0, 1] toward SweepOptions::scenario; nonzero values require a named
/// scenario), "hetero" (mean-preserving two-class rate spread in [0, 1)).
struct Axis {
  std::string name;
  std::vector<double> values;
};

/// Parses a single axis spec. Three forms:
///   name=lo:hi:count   inclusive linspace with `count` >= 1 points
///   name=v1,v2,...     explicit list
///   name=v             single value
/// "inf" is accepted as a value (for gamma). Aborts on malformed specs.
Axis parse_axis(const std::string& spec);

/// A cartesian grid: the cell index enumerates axis values row-major with
/// the LAST axis fastest (cell 0 is every axis at its first value).
struct SweepGrid {
  std::vector<Axis> axes;

  /// Product of the axis sizes. Aborts (echoing the axis sizes) when the
  /// product overflows size_t — a hostile spec must not wrap silently
  /// and under-allocate the sweep.
  std::size_t num_cells() const;
  /// The axis values of cell `index`, aligned with `axes`.
  std::vector<double> cell_values(std::size_t index) const;
  /// Replaces the axis with the same name, or appends a new one.
  void set_axis(Axis axis);
  const Axis* find_axis(const std::string& name) const;
};

/// Parses ';'-separated axis specs, e.g. "lambda=0.5:3.0:16;gamma=inf".
SweepGrid parse_grid(const std::string& spec);

/// Empty when every cell of `grid` (missing axes filled from the
/// default region grid, like run_sweep_stream does) under `scenario`
/// lies in the type-count backend's domain; otherwise a message naming
/// the offending axis and value. Shared by the engine's forced-typecount
/// validation and p2p_sweep's friendly pre-flight error, so the two
/// never disagree on the domain.
std::string typecount_domain_violation(const SweepGrid& grid,
                                       const ScenarioSpec& scenario);

/// The standard Theorem-1 region grid: lambda 0.5:3.0:16 crossed with
/// us 0.2:1.7:16 (256 cells) at mu = 1, gamma = 1.25, K = 3, eta = 1,
/// flash = 0, mix = 0, hetero = 0 — the phase-diagram slice of Fig. 1(a)
/// generalized to K pieces (and pinned to the homogeneous slice of the
/// scenario space).
SweepGrid default_region_grid();

struct SweepOptions {
  /// Simulated time per replica.
  double horizon = 400;
  /// Simulated time discarded from the time-averaged population (the
  /// occupancy integral starts at `warmup`), so stationary estimates are
  /// not dragged down by the empty-start transient. Must be < horizon.
  double warmup = 0;
  /// Root seed; replica r of cell i simulates with a stream derived from
  /// (seed, i, r).
  std::uint64_t base_seed = 1;
  /// OS threads (callers usually pass hardware_concurrency).
  int threads = 1;
  /// (cell, replica) work items claimed per pool mutex acquisition;
  /// 0 = auto (~items / (64 * threads)). Any value yields byte-identical
  /// output; large chunks only matter for huge closed-form grids where
  /// per-item claiming would serialize on the mutex.
  std::size_t chunk = 0;
  /// Independent replicas per cell, fanned as individual work items.
  int replicas = 1;
  /// Skip the simulator entirely: every cell gets only the Theorem-1
  /// closed form (and the CTMC solve, if enabled). The sim columns stay
  /// NaN with replicas = 0, one work item per cell regardless of
  /// `replicas`. This is what lets million-cell phase diagrams render in
  /// seconds.
  bool theory_only = false;
  /// Confidence level of the replica-mean bootstrap CI.
  double confidence = 0.95;
  /// Bootstrap resamples for the CI (>= 10).
  int bootstrap_resamples = 256;
  /// > 0: additionally solve the truncated chain with this peer cap for
  /// cells with K <= kCtmcMaxPieces whose state count C(cap + 2^K, 2^K)
  /// stays within kCtmcMaxStates (the space explodes combinatorially: a
  /// cap of 60 is ~2e3 states at K = 1 and ~7e9 at K = 3). The solve is
  /// also skipped — the column stays NaN, "NaN unless the solve ran" —
  /// for cells whose simulated law is not the homogeneous chain's
  /// (eta != 1 or hetero != 0); typed mixes are fine, the chain is typed
  /// by nature.
  std::int64_t ctmc_max_peers = 0;

  /// Simulation backend for the replica runs. kAuto picks per cell:
  /// the type-count backend where its law applies (eta = 1, hetero = 0,
  /// k <= 16), the per-peer simulator otherwise. Forcing kTypeCount on
  /// a grid with cells outside that domain aborts up front, naming the
  /// offending axis — the backend must never silently change the law.
  SimBackend sim_backend = SimBackend::kAuto;

  /// Typed-arrival scenario the mix/hetero axes act on; default empty
  /// (the mix axis must then be 0 everywhere). Its policy field selects
  /// the simulated peers' piece-selection rule for every cell.
  ScenarioSpec scenario;

  /// Additionally classify every cell by the fluid (mean-field) limit:
  /// integrate the dense ODE of core/fluid.hpp from a large one-club
  /// point mass over the horizon and sign the late-window growth of the
  /// club coordinate — the numerical analogue of Delta_S (the fluid
  /// one-club drift), and the third verdict next to theory and sim.
  /// Adds the fluid_verdict column. The ODE is dense over 2^k piece
  /// sets, so the k axis must stay <= kFluidMaxPieces.
  bool fluid = false;

  static constexpr int kCtmcMaxPieces = 3;
  static constexpr double kCtmcMaxStates = 2e6;
  static constexpr int kFluidMaxPieces = 8;
};

/// Replica-aggregated simulation statistics for one parameter point.
/// With a single replica the uncertainty fields are NaN.
struct SimAggregate {
  int replicas = 0;
  double final_peers_mean = std::nan("");
  double mean_peers_mean = std::nan("");
  /// SEM of mean_peers across replicas (batch means, batch size 1).
  double mean_peers_sem = std::nan("");
  /// Percentile bootstrap CI for the replica mean at
  /// SweepOptions::confidence.
  double mean_peers_lo = std::nan("");
  double mean_peers_hi = std::nan("");
  /// Mean sojourn over the replicas that saw departures; NaN if none did.
  /// (Similarly, mean_peers statistics cover only replicas whose
  /// measurement window was nonempty — replicas counts the requested
  /// total.)
  double mean_sojourn = std::nan("");
};

/// One classified grid cell: what a grid row's columns record.
struct CellResult {
  std::size_t index = 0;
  double lambda = 0, us = 0, mu = 0, gamma = 0;
  int k = 0;
  /// Section VIII-C retry boost (1 = base model).
  double eta = 1;
  /// One-club flash crowd injected at t = 0.
  std::int64_t flash = 0;
  /// Arrival-composition interpolation toward the scenario mix (0 =
  /// empty-arrival stream).
  double mix = 0;
  /// Two-class upload-rate spread (0 = homogeneous).
  double hetero = 0;
  StabilityReport theory;
  SimAggregate sim;
  /// NaN unless the CTMC solve ran for this cell.
  double ctmc_mean_peers = std::nan("");
  /// Resolved backend the cell's replicas ran on (never kAuto).
  /// Meaningless — and the report column absent — under theory_only.
  SimBackend backend = SimBackend::kPerPeer;
  /// Fluid-limit verdict (meaningful only when SweepOptions::fluid):
  /// transient when the one-club point mass grows along the mean-field
  /// flow, positive-recurrent when it drains, borderline in between.
  Stability fluid = Stability::kBorderline;
};

/// The grid table's column names for `options` — what a ReportWriter
/// for run_sweep_stream must be constructed with: cell, lambda, us, mu,
/// gamma, k, eta, flash, mix, hetero, [per-type arrival-rate columns
/// when the scenario is non-empty: lambda_empty then lambda_t<pieces>
/// per mix type, one-based and '.'-joined, e.g. lambda_t1.2], verdict,
/// margin, critical_piece, replicas, sim_final_peers, sim_mean_peers,
/// sim_mean_sojourn, sim_mean_peers_sem, sim_mean_peers_lo,
/// sim_mean_peers_hi, ctmc_mean_peers[, sim_backend unless theory_only][, policy when
/// simulating off the RandomUseful baseline][, fluid_verdict when
/// options.fluid].
std::vector<std::string> sweep_columns(const SweepOptions& options);

/// What a streamed sweep leaves behind: the verdict tallies the tool
/// prints to stderr (the cells themselves went to the writer).
struct SweepSummary {
  std::size_t cells = 0;
  std::size_t stable = 0;
  std::size_t transient = 0;
  std::size_t borderline = 0;
};

/// Runs every (cell, replica) pair of `grid` across `options.threads`
/// threads and hands each cell's row to `writer` (construct it with
/// sweep_columns(options)) as soon as every cell before it has
/// finished. Axes not present in `grid` take the default_region_grid()
/// values (so an empty grid runs the full 256-cell region sweep). Live
/// state is the ordered-evaluation core's ring of O(chunk * threads +
/// replicas) items, so grid size does not bound memory. The caller
/// finishes the writer. The bytes are identical for any (threads, chunk)
/// combination. Aborts on unknown axis names, inf on any axis but gamma,
/// or invalid parameter values (lambda/mu <= 0, eta < 1, fractional
/// flash, ...).
SweepSummary run_sweep_stream(const SweepGrid& grid,
                              const SweepOptions& options,
                              ReportWriter& writer);

// --- Theorem-1 boundary refinement ---

struct RefineOptions {
  /// Axis bisected toward the verdict flip; must be one of the
  /// continuous theory axes "lambda", "us", "mu", "gamma", "mix" (the
  /// verdict depends on the arrival composition, so the Theorem-1 flip
  /// can be localized along the mix interpolation too).
  std::string axis;
  /// Absolute tolerance: bisection stops once the bracket is this wide.
  double tol = 1e-3;
};

/// Parses "axis:tol", e.g. "lambda:0.01". Aborts on malformed specs.
RefineOptions parse_refine(const std::string& spec);

/// True for the axes refinement may bisect: the continuous parameters
/// the Theorem-1 closed form depends on (lambda, us, mu, gamma, mix).
/// eta, hetero and flash never flip the verdict along themselves
/// (Section VIII-C's point, homogeneous-rate theory, initial state
/// only), and k is integral. The phase-diagram re-bisection
/// (analysis/phase_diagram.hpp) consults the same predicate, so the
/// two localizers cannot drift on which axes they cover.
bool refinable_axis(const std::string& name);

/// One localized frontier point: the Theorem-1 verdict flip along the
/// refined axis for one combination of the remaining axes.
struct FrontierPoint {
  /// Row index over the non-refined axes (last axis fastest).
  std::size_t row = 0;
  /// False when the coarse scan found no verdict flip in this row: no
  /// simulation runs, value/value_lo/value_hi/margin and the sim fields
  /// are NaN, and `params` still reports the row's values (with NaN in
  /// the refined axis's slot).
  bool bracketed = false;
  /// Cell parameters at the frontier estimate (the refined axis's slot
  /// holds `value`).
  CellParams params;
  /// Frontier estimate: midpoint of the final bracket [value_lo,
  /// value_hi], which is at most `tol` wide and contains the flip.
  double value = std::nan("");
  double value_lo = std::nan("");
  double value_hi = std::nan("");
  /// Theorem-1 stability margin at `value` (~0 by construction).
  double margin = std::nan("");
  /// R replicas simulated at the frontier point.
  SimAggregate sim;
};

/// The frontier table's column names for `options` — what a
/// ReportWriter for run_frontier_stream must be constructed with: row,
/// axis, bracketed, value, value_lo, value_hi, margin, lambda, us, mu,
/// gamma, k, eta, flash, mix, hetero, [the same
/// per-type arrival-rate columns as the grid table when the scenario is
/// non-empty], replicas, sim_mean_peers, sim_mean_peers_sem,
/// sim_mean_peers_lo, sim_mean_peers_hi, sim_backend[, policy when the
/// scenario's policy is not the RandomUseful baseline].
std::vector<std::string> frontier_columns(const SweepOptions& options);

/// The one closed-form bisection of a Theorem-1 verdict flip, shared by
/// run_frontier_stream and the phase-diagram re-bisection
/// (analysis/phase_diagram.hpp): halves the bracket [lo, hi] — `at_lo` is
/// the verdict at lo, and hi classifies differently — toward the flip
/// until it is at most `tol` wide, and returns the final bracket. 200
/// halvings cap the loop when tol lies below the bracket's
/// floating-point resolution; each costs one verdict_at(mid) call.
template <typename VerdictAt>
std::pair<double, double> bisect_verdict_flip(double lo, double hi,
                                              Stability at_lo, double tol,
                                              VerdictAt&& verdict_at) {
  for (int iter = 0; std::abs(hi - lo) > tol && iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (verdict_at(mid) == at_lo) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return {lo, hi};
}

/// What a streamed frontier run leaves behind (the points themselves
/// went to the writer).
struct FrontierSummary {
  std::size_t rows = 0;
  std::size_t bracketed = 0;
};

/// For each combination of the non-refined axes ("row"), scans the
/// refined axis's coarse values (in axis order) for the first adjacent
/// Theorem-1 verdict change, bisects that bracket down to `refine.tol`
/// (closed form, no simulation), then runs options.replicas SwarmSim
/// replicas at the localized frontier point. Each point's row is handed
/// to `writer` (construct it with frontier_columns(options)) as soon as
/// every row before it has finished. The (row, replica) items go through
/// the grid's ordered-evaluation core and chunked claiming
/// (options.chunk), so live state is O(chunk * threads + replicas) items
/// however tall the coarse grid, and a tall grid does not serialize on
/// the claim mutex. The caller finishes the writer. Same determinism
/// contract as run_sweep_stream. Aborts if the refined axis is missing,
/// non-refinable, has < 2 values, or contains inf, and under
/// theory_only.
FrontierSummary run_frontier_stream(const SweepGrid& grid,
                                    const SweepOptions& options,
                                    const RefineOptions& refine,
                                    ReportWriter& writer);

}  // namespace p2p::engine
