// Scenario layer for the sweep engine: typed arrival mixes and
// heterogeneous rate classes beyond the homogeneous slice.
//
// A ScenarioSpec names a typed arrival mix — per-type fractions of the
// total arrival rate over piece sets, e.g. the paper's Example 2
// paired-halves mix, the Example 3 single-piece mix, or the Section V
// one-club stream — plus the selection weights of the slow/fast class
// pair that the `hetero` sweep axis spreads.
//
// Two sweep axes consume a scenario:
//
//   * mix m in [0, 1] — interpolation between the empty-arrival stream
//     (m = 0, the homogeneous slice every earlier sweep explored) and the
//     named mix (m = 1): arrivals are (1 - m) * lambda on the empty type
//     plus m * lambda split across the mix fractions. lambda keeps its
//     meaning as the *total* arrival rate, so the mix axis moves the
//     composition of the load, never its volume.
//
//   * hetero h in [0, 1) — mean-preserving spread of the two-class
//     upload-rate multiplier (sim/swarm.hpp two_class_spread): the slow
//     class runs at 1 - h, the fast class at 1 + h * w_slow / w_fast, so
//     the weighted mean multiplier stays 1 and mu remains the mean
//     capacity. h enters only the simulator; Theorem 1 is homogeneous.
//
// expand() materializes one grid cell into the SwarmParams / SwarmSimOptions
// pair the (cell, replica) fan feeds to the classifier, the truncated-CTMC
// cross-check and SwarmSim. At m = 0 and h = 0 the expansion is exactly
// the homogeneous cell (empty-arrival stream, no rate classes), so legacy
// grids are the mix = 0, hetero = 0 slice of the scenario space.
#pragma once

#include <string>
#include <vector>

#include "core/model.hpp"
#include "sim/swarm.hpp"

namespace p2p::engine {

/// A named typed-arrival scenario. `empty()` (no mix types) means the
/// homogeneous empty-arrival stream; the mix axis must then stay 0.
struct ScenarioSpec {
  /// Name as parsed ("example2", "example3", "oneclub"), for messages and
  /// report metadata.
  std::string name;
  /// Piece count the mix is defined over; the k axis must equal this for
  /// every cell when the scenario is non-empty.
  int num_pieces = 0;
  /// Per-type fractions of the typed share of the arrival stream,
  /// normalized to sum 1 (SwarmParams::normalized_mix). Entries may carry
  /// fraction 0 (a degenerate weight); expand() drops them from the
  /// materialized params.
  std::vector<ArrivalSpec> mix;
  /// Selection weights of the slow/fast rate class spread by the hetero
  /// axis (sim/swarm.hpp two_class_spread).
  double slow_weight = 1;
  double fast_weight = 1;
  /// Useful-piece selection the simulated peers run (Theorem 14's class
  /// H). Orthogonal to the arrival mix: a scenario may set a policy with
  /// or without a typed mix, so empty() is unaffected. Theory columns
  /// ignore it — Theorem 14 says the stability region does not move.
  PolicyKind policy = PolicyKind::kRandomUseful;

  bool empty() const { return mix.empty(); }
};

/// Parses a `--mix` scenario spec. Grammar: name[:args] with
///   example2[:w12,w34]   Example 2 paired-halves mix over K = 4
///                        (weights default 1,1)
///   example3[:w1,w2,w3]  Example 3 single-piece mix over K = 3
///                        (weights default 1,1,1)
///   oneclub:K            one-club stream (every arrival holds F - {0})
///                        over K >= 2 pieces
/// Weights are nonnegative with a positive sum. Aborts on malformed
/// specs, echoing the offending spec verbatim.
ScenarioSpec parse_scenario(const std::string& spec);

/// Parses a `--policy` token: "random" (the Theorem-1 baseline),
/// "rarest", "mostcommon", or "sequential". Aborts on unknown tokens,
/// echoing the offending spec verbatim.
PolicyKind parse_policy(const std::string& spec);

/// The model-parameter tuple a single grid point denotes (engine/sweep.hpp
/// fills it from the axis values).
struct CellParams {
  double lambda = 0, us = 0, mu = 0, gamma = 0, eta = 1;
  double mix = 0, hetero = 0;
  int k = 0;
  std::int64_t flash = 0;
  /// Copied from the scenario (no policy axis exists): part of the cell
  /// so backend-domain checks (engine/sweep.hpp typecount_in_domain) see
  /// the full simulator configuration one tuple describes.
  PolicyKind policy = PolicyKind::kRandomUseful;
};

/// One materialized grid cell: the model the theory/CTMC layers classify
/// and the simulator configuration (minus the per-replica rng_seed, which
/// the caller derives from (seed, cell, replica)).
struct ExpandedCell {
  SwarmParams params;
  SwarmSimOptions sim;
};

/// Materializes cell `p` under `scenario`: arrival streams
/// (1 - mix) * lambda on the empty type plus mix * lambda across the mix
/// fractions (zero-rate streams dropped, so mix = 0 reproduces the
/// homogeneous cell byte-for-byte), retry_boost = eta, and rate classes
/// from two_class_spread(hetero, slow_weight, fast_weight). Aborts when
/// mix > 0 with an empty scenario, when k differs from the scenario's
/// piece count, or when mix/hetero leave their domains.
ExpandedCell expand(const ScenarioSpec& scenario, const CellParams& p);

/// expand()'s validation of the (scenario, p) pairing: aborts when mix
/// leaves [0, 1], when mix > 0 with an empty scenario, when k differs
/// from the scenario's piece count, or when the scenario's mix and piece
/// count are not set together.
void check_cell_scenario(const ScenarioSpec& scenario, const CellParams& p);

/// The arrival-stream materialization inside expand(), writing into a
/// reused buffer: clears `out`, then appends (1 - mix) * lambda on the
/// empty type and mix * lambda across the mix fractions, dropping
/// zero-rate streams. Does not validate: the caller has checked the
/// pairing, per cell with check_cell_scenario or once per grid (the
/// sweep engine's validate_effective_axes). The sweep engine's
/// allocation-free theory path and the simulator path both materialize
/// through here, so the classifier and the simulator can never disagree
/// about the streams a cell carries.
void expand_arrivals(const ScenarioSpec& scenario, const CellParams& p,
                     std::vector<ArrivalSpec>& out);

}  // namespace p2p::engine
