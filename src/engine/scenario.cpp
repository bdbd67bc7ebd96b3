#include "engine/scenario.hpp"

#include <cmath>

#include "engine/parse_util.hpp"
#include "util/assert.hpp"

namespace p2p::engine {

namespace {

constexpr const char* kWeightError =
    "mix weights must be nonnegative finite numbers";

/// Parses one nonnegative finite weight; aborts echoing `spec`.
double parse_weight(const std::string& token, const std::string& spec) {
  const double v =
      parse_number(token, spec, /*allow_inf=*/false, kWeightError);
  P2P_ASSERT_MSG(v >= 0,
                 std::string(kWeightError) + " (got \"" + spec + "\")");
  return v;
}

std::vector<double> parse_weight_list(const std::string& args,
                                      const std::string& spec) {
  std::vector<double> weights;
  double total = 0;
  for (const std::string& token : split_list(args, ',')) {
    weights.push_back(parse_weight(token, spec));
    total += weights.back();
  }
  // Checked here rather than left to SwarmParams::normalized_mix so the
  // abort echoes the offending CLI spec like every other parse error.
  P2P_ASSERT_MSG(total > 0,
                 "mix weights must have a positive sum (got \"" + spec +
                     "\")");
  return weights;
}

}  // namespace

ScenarioSpec parse_scenario(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string name =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  const bool has_args = colon != std::string::npos;
  P2P_ASSERT_MSG(!has_args || colon + 1 < spec.size(),
                 "mix spec has a trailing ':' with no arguments (got \"" +
                     spec + "\")");
  const std::string args = has_args ? spec.substr(colon + 1) : std::string();

  ScenarioSpec scenario;
  scenario.name = name;
  if (name == "example2") {
    std::vector<double> w = has_args ? parse_weight_list(args, spec)
                                     : std::vector<double>{1, 1};
    P2P_ASSERT_MSG(w.size() == 2,
                   "example2 mix takes exactly two weights w12,w34 (got \"" +
                       spec + "\")");
    scenario.num_pieces = 4;
    scenario.mix = SwarmParams::example2_mix(w[0], w[1]);
  } else if (name == "example3") {
    std::vector<double> w = has_args ? parse_weight_list(args, spec)
                                     : std::vector<double>{1, 1, 1};
    P2P_ASSERT_MSG(
        w.size() == 3,
        "example3 mix takes exactly three weights w1,w2,w3 (got \"" + spec +
            "\")");
    scenario.num_pieces = 3;
    scenario.mix = SwarmParams::example3_mix(w[0], w[1], w[2]);
  } else if (name == "oneclub") {
    P2P_ASSERT_MSG(has_args,
                   "oneclub mix needs a piece count, e.g. oneclub:4 (got \"" +
                       spec + "\")");
    const std::vector<double> w = parse_weight_list(args, spec);
    const long k = std::lround(w.size() == 1 ? w[0] : -1);
    P2P_ASSERT_MSG(w.size() == 1 && k >= 2 && k <= kMaxPieces &&
                       std::abs(w[0] - static_cast<double>(k)) < 1e-9,
                   "oneclub mix takes one integer piece count K in [2, 64] "
                   "(got \"" +
                       spec + "\")");
    scenario.num_pieces = static_cast<int>(k);
    scenario.mix = SwarmParams::one_club_mix(scenario.num_pieces);
  } else {
    P2P_ASSERT_MSG(false,
                   "unknown mix name (valid: example2, example3, oneclub; "
                   "got \"" +
                       spec + "\")");
  }
  return scenario;
}

PolicyKind parse_policy(const std::string& spec) {
  if (spec == "random") return PolicyKind::kRandomUseful;
  if (spec == "rarest") return PolicyKind::kRarestFirst;
  if (spec == "mostcommon") return PolicyKind::kMostCommonFirst;
  if (spec == "sequential") return PolicyKind::kSequential;
  P2P_ASSERT_MSG(false,
                 "unknown policy (valid: random, rarest, mostcommon, "
                 "sequential; got \"" +
                     spec + "\")");
  return PolicyKind::kRandomUseful;
}

void check_cell_scenario(const ScenarioSpec& scenario, const CellParams& p) {
  P2P_ASSERT_MSG(p.mix >= 0 && p.mix <= 1,
                 "axis mix must lie in [0, 1] (0 = empty-arrival stream, "
                 "1 = the named mix)");
  P2P_ASSERT_MSG(scenario.empty() == (scenario.num_pieces == 0),
                 "scenario mix and piece count must be set together");
  if (scenario.empty()) {
    P2P_ASSERT_MSG(p.mix == 0,
                   "axis mix needs a named scenario (--mix) to interpolate "
                   "toward");
  } else {
    P2P_ASSERT_MSG(p.k == scenario.num_pieces,
                   "axis k must equal the scenario's piece count (mix \"" +
                       scenario.name + "\" is defined over K = " +
                       std::to_string(scenario.num_pieces) + ")");
  }
}

void expand_arrivals(const ScenarioSpec& scenario, const CellParams& p,
                     std::vector<ArrivalSpec>& out) {
  // Zero-rate streams are dropped so the m = 0 (and degenerate-weight)
  // expansions are byte-for-byte the homogeneous cell: same arrival list,
  // same RNG consumption, same report bytes.
  out.clear();
  const double empty_rate = (1.0 - p.mix) * p.lambda;
  if (empty_rate > 0) out.push_back({PieceSet{}, empty_rate});
  for (const auto& a : scenario.mix) {
    const double rate = p.mix * p.lambda * a.rate;
    if (rate > 0) out.push_back({a.type, rate});
  }
}

ExpandedCell expand(const ScenarioSpec& scenario, const CellParams& p) {
  check_cell_scenario(scenario, p);
  std::vector<ArrivalSpec> arrivals;
  expand_arrivals(scenario, p, arrivals);
  ExpandedCell cell{
      SwarmParams(p.k, p.us, p.mu, p.gamma, std::move(arrivals)), {}};
  cell.sim.retry_boost = p.eta;
  cell.sim.rate_classes =
      two_class_spread(p.hetero, scenario.slow_weight, scenario.fast_weight);
  cell.sim.policy = p.policy;
  return cell;
}

}  // namespace p2p::engine
