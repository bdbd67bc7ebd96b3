// Closed-form stability theory: Theorem 1 of Zhu & Hajek and the derived
// provisioning solvers.
//
// For 0 < mu < gamma <= infinity the stability region is characterized by
// the per-piece thresholds (Eqs. (2)/(3))
//
//   lambda_total  <>  [ Us + sum_{C: k in C} lambda_C (K + 1 - |C|) ]
//                     / (1 - mu/gamma)
//
// or equivalently by Delta_S < 0 for all S != F (Eq. (4)):
//
//   Delta_S = sum_{C subset S} lambda_C
//             - [ Us + sum_{C !subset S} lambda_C (K - |C| + mu/gamma) ]
//               / (1 - mu/gamma).
//
// For 0 < gamma <= mu the system is positive recurrent iff every piece can
// enter the system (Us > 0 or some positive-rate arrival type contains it).
#pragma once

#include <string>
#include <vector>

#include "core/model.hpp"

namespace p2p {

enum class Stability {
  kPositiveRecurrent,
  kTransient,
  kBorderline,  // equality in (3) for some k; Theorem 1 leaves this open
};

/// The verdict token reports spell ("positive-recurrent", "transient",
/// "borderline"); a static string, so no call allocates.
const char* to_string(Stability s);

/// Delta_S of Eq. (4). Requires mu < gamma (otherwise the expression is
/// not meaningful; the classifier handles gamma <= mu separately).
/// `excluded` is the set S (peers of types inside S form the heavy load;
/// S = F - {k} is the "one club" missing piece k). The SwarmParamsView
/// overloads are the allocation-free forms the sweep engine's hot loop
/// uses; the SwarmParams forms forward to them.
double delta_S(const SwarmParamsView& params, PieceSet excluded);
double delta_S(const SwarmParams& params, PieceSet excluded);

/// Right-hand side of Eqs. (2)/(3) for piece k:
///   [Us + sum_{C: k in C} lambda_C (K + 1 - |C|)] / (1 - mu/gamma).
/// The system is stable iff lambda_total is below this for all k.
double piece_threshold(const SwarmParamsView& params, int piece);
double piece_threshold(const SwarmParams& params, int piece);

struct StabilityReport {
  Stability verdict = Stability::kBorderline;
  /// Piece attaining the minimum stability margin (the candidate missing
  /// piece for the one-club), -1 when the gamma <= mu branch applies.
  int critical_piece = -1;
  /// min_k (threshold_k - lambda_total); positive => recurrent,
  /// negative => transient (for the mu < gamma branch).
  double margin = 0;
  /// Worst-case Delta_S over all S != F (mu < gamma branch only);
  /// negative for recurrent systems.
  double worst_delta = 0;
  /// Which branch of Theorem 1 applied.
  bool altruistic_branch = false;  // true iff gamma <= mu
  std::string to_string() const;
};

/// Classifies the parameter point per Theorem 1. The view overload
/// validates the tuple first (a view built from a scratch buffer never
/// went through SwarmParams's constructor) — the sweep engine's
/// allocation-free path must abort on a bad cell with the same messages
/// the owning path does.
StabilityReport classify(const SwarmParamsView& params);
StabilityReport classify(const SwarmParams& params);

// --- Provisioning solvers (inversions of Theorem 1's boundary) ---

/// Smallest fixed-seed rate Us making the system (strictly) stable with
/// the given arrivals, mu, gamma; 0 if stable already at Us = 0. Requires
/// mu < gamma (for gamma <= mu any Us works once pieces can enter). The
/// view overload is the allocation-free form the live monitor's advisory
/// loop calls once per tick (analysis/provisioning.hpp wraps it).
double min_stabilizing_seed_rate(const SwarmParamsView& params);
double min_stabilizing_seed_rate(const SwarmParams& params);

/// Largest gamma (smallest mean dwell 1/gamma) keeping the system stable,
/// holding everything else fixed. Returns +infinity when the system is
/// stable even with immediate departures. The paper's corollary guarantees
/// the result is always >= mu when all pieces can enter.
double max_stabilizing_seed_depart_rate(const SwarmParams& params);

/// Critical multiplicative load: the factor s* such that scaling every
/// arrival rate by s < s* is stable and s > s* is transient. Returns
/// +infinity when no finite scaling destabilizes (e.g. gamma <= mu with
/// arrival types covering all pieces).
double critical_load_scale(const SwarmParams& params);

}  // namespace p2p
