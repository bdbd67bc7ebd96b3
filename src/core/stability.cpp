#include "core/stability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace p2p {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

const char* to_string(Stability s) {
  switch (s) {
    case Stability::kPositiveRecurrent:
      return "positive-recurrent";
    case Stability::kTransient:
      return "transient";
    case Stability::kBorderline:
      return "borderline";
  }
  return "?";
}

double delta_S(const SwarmParamsView& params, PieceSet excluded) {
  const int k = params.num_pieces;
  P2P_ASSERT_MSG(!(excluded == PieceSet::full(k)), "S must be a proper subset");
  const double g = params.mu_over_gamma();
  P2P_ASSERT_MSG(g < 1.0, "delta_S requires mu < gamma");
  double inside = 0;   // sum_{C subset S} lambda_C
  double outside = 0;  // sum_{C !subset S} lambda_C (K - |C| + mu/gamma)
  for (const auto& a : params.arrivals) {
    if (a.type.is_subset_of(excluded)) {
      inside += a.rate;
    } else {
      outside += a.rate * (k - a.type.size() + g);
    }
  }
  return inside - (params.seed_rate + outside) / (1.0 - g);
}

double delta_S(const SwarmParams& params, PieceSet excluded) {
  return delta_S(params.view(), excluded);
}

double piece_threshold(const SwarmParamsView& params, int piece) {
  const int k = params.num_pieces;
  const double g = params.mu_over_gamma();
  P2P_ASSERT_MSG(g < 1.0, "piece_threshold requires mu < gamma");
  double sum = params.seed_rate;
  for (const auto& a : params.arrivals) {
    if (a.type.contains(piece)) sum += a.rate * (k + 1 - a.type.size());
  }
  return sum / (1.0 - g);
}

double piece_threshold(const SwarmParams& params, int piece) {
  return piece_threshold(params.view(), piece);
}

std::string StabilityReport::to_string() const {
  std::string s = std::string("StabilityReport{") + p2p::to_string(verdict);
  if (altruistic_branch) {
    s += ", branch=gamma<=mu";
  } else {
    s += ", critical_piece=" + std::to_string(critical_piece + 1) +
         ", margin=" + std::to_string(margin) +
         ", worst_delta=" + std::to_string(worst_delta);
  }
  return s + "}";
}

StabilityReport classify(const SwarmParamsView& params) {
  // A view may borrow a raw scratch buffer that never went through
  // SwarmParams's constructor; classifying an invalid tuple must abort
  // with the same messages regardless of which path built it.
  params.validate();
  StabilityReport report;
  const int k = params.num_pieces;
  const double mu = params.contact_rate;
  const double gamma = params.seed_depart_rate;

  if (gamma <= mu) {
    // Altruistic branch: each peer seed uploads >= 1 extra piece on
    // average. Stable iff every piece can enter.
    report.altruistic_branch = true;
    report.verdict = params.all_pieces_can_enter()
                         ? Stability::kPositiveRecurrent
                         : Stability::kTransient;
    for (int piece = 0; piece < k; ++piece) {
      if (!params.piece_can_enter(piece)) {
        report.critical_piece = piece;
        break;
      }
    }
    return report;
  }

  // mu < gamma branch: compare lambda_total to each per-piece threshold.
  // A piece that cannot enter at all has threshold 0 < lambda_total, so it
  // is covered by the same comparison.
  const double lambda_total = params.total_arrival_rate();
  report.margin = kInf;
  for (int piece = 0; piece < k; ++piece) {
    const double margin = piece_threshold(params, piece) - lambda_total;
    if (margin < report.margin) {
      report.margin = margin;
      report.critical_piece = piece;
    }
  }
  report.worst_delta =
      delta_S(params, PieceSet::full(k).without(report.critical_piece));
  if (report.margin > 0) {
    report.verdict = Stability::kPositiveRecurrent;
  } else if (report.margin < 0) {
    report.verdict = Stability::kTransient;
  } else {
    report.verdict = Stability::kBorderline;
  }
  return report;
}

StabilityReport classify(const SwarmParams& params) {
  return classify(params.view());
}

double min_stabilizing_seed_rate(const SwarmParamsView& params) {
  const int k = params.num_pieces;
  const double g = params.mu_over_gamma();
  if (params.seed_depart_rate <= params.contact_rate) {
    // Altruistic branch: Us > 0 suffices (and Us = 0 works if arrivals
    // already cover every piece).
    return params.all_pieces_can_enter() ? 0.0
                                         : std::nextafter(0.0, 1.0);
  }
  const double lambda_total = params.total_arrival_rate();
  double needed = 0;
  for (int piece = 0; piece < k; ++piece) {
    double contributed = 0;
    for (const auto& a : params.arrivals) {
      if (a.type.contains(piece)) {
        contributed += a.rate * (k + 1 - a.type.size());
      }
    }
    needed = std::max(needed, lambda_total * (1.0 - g) - contributed);
  }
  return std::max(0.0, needed);
}

double min_stabilizing_seed_rate(const SwarmParams& params) {
  return min_stabilizing_seed_rate(params.view());
}

double max_stabilizing_seed_depart_rate(const SwarmParams& params) {
  const int k = params.num_pieces();
  const double mu = params.contact_rate();
  const double lambda_total = params.total_arrival_rate();
  // Condition per piece with g = mu/gamma in (0,1):
  //   lambda_total (1 - g) < Us + A_k + g B_k,
  // where A_k = sum_{C: k in C} lambda_C (K - |C|), B_k = sum_{C: k in C}
  // lambda_C. Solving: g > (lambda_total - Us - A_k) / (lambda_total + B_k).
  double g_star = 0;
  for (int piece = 0; piece < k; ++piece) {
    double a = 0, b = 0;
    for (const auto& spec : params.arrivals()) {
      if (spec.type.contains(piece)) {
        a += spec.rate * (k - spec.type.size());
        b += spec.rate;
      }
    }
    const double num = lambda_total - params.seed_rate() - a;
    g_star = std::max(g_star, num / (lambda_total + b));
  }
  if (g_star <= 0) return kInf;  // stable even with immediate departure
  // g_star < 1 always: numerator < lambda_total <= denominator. Any
  // gamma < mu/g_star works (and all gamma <= mu via the other branch when
  // pieces can enter).
  return mu / g_star;
}

double critical_load_scale(const SwarmParams& params) {
  const int k = params.num_pieces();
  const double g = params.mu_over_gamma();
  if (params.seed_depart_rate() <= params.contact_rate()) {
    return params.all_pieces_can_enter() ? kInf : 0.0;
  }
  const double lambda_total = params.total_arrival_rate();
  // Scaling arrivals by s: s*lambda_total (1-g) <> Us + s*T_k with
  // T_k = sum_{C: k in C} lambda_C (K + 1 - |C|). Critical s solves
  // equality; if lambda_total (1-g) <= T_k the load never catches up.
  double s_star = kInf;
  for (int piece = 0; piece < k; ++piece) {
    double t = 0;
    for (const auto& a : params.arrivals()) {
      if (a.type.contains(piece)) t += a.rate * (k + 1 - a.type.size());
    }
    const double denom = lambda_total * (1.0 - g) - t;
    if (denom > 0) {
      s_star = std::min(s_star, params.seed_rate() / denom);
    }
  }
  return s_star;
}

}  // namespace p2p
