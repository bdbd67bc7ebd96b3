// p2p_monitor: live stability monitoring over a swarm event stream.
//
// Two modes share one event grammar (sim/event_log.hpp):
//
//   * monitor (default): read event lines — CSV with the
//     t,event,type,piece header, or JSON lines — from --in (default
//     stdin), maintain sliding-window estimates of (lambda, mix, Us, mu,
//     gamma), classify each advisory tick against the Theorem-1 region
//     with hysteresis, and stream JSON-lines advisories to --out. No
//     wall clock anywhere: timestamps come from the events, so a
//     recorded log replays byte-identically — run it twice and diff.
//
//   * --emit "lambda:dur;lambda:dur;...": generate a synthetic event log
//     from a piecewise-stationary schedule instead (SwarmBackend ground
//     truth; the population carries across segment boundaries). This is
//     how the committed frontier-crossing trace under experiments/ was
//     made.
//
//   # Record a trace that crosses the stability frontier and back:
//   $ ./p2p_monitor --k 3 --emit "1:150;4:150;1:150" --us 1 --mu 1 \
//       --gamma 2 --seed 7 --out events.csv
//
//   # Replay it through the monitor (file in, stdout out):
//   $ ./p2p_monitor --k 3 --in events.csv --window 40 --every 5
//
//   # Same bytes, fed as a live stream:
//   $ cat events.csv | ./p2p_monitor --k 3 --window 40 --every 5
//
// Advisory schema (one JSON object per line, keys always in this order):
//   t        advisory timestamp (log time)
//   status   hysteresis-filtered verdict: estimating | stable | unstable
//   raw      instantaneous Theorem-1 verdict (null while estimating)
//   margin   min_k(threshold_k - lambda_total) at the estimated point
//            (null while estimating or on the altruistic branch)
//   flips    cumulative stable <-> unstable transitions
//   events   events processed before this tick
//   n, seeds instantaneous population / peer-seed count
//   coverage window time observed; mean_n windowed average population
//   lambda   arrival-rate estimate; mix: per-type-mask share of arrivals
//   us, mu   fixed-seed / per-peer contact-rate estimates
//   gamma    peer-seed departure-rate estimate (null = unknown or
//            infinite; dwell = 1/gamma spells immediate departure as 0)
//   us_required  smallest stabilizing Us at the estimated point
//   us_gap       capacity to add to re-enter the stable region
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "engine/parse_util.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "service/monitor.hpp"
#include "sim/event_log.hpp"
#include "util/assert.hpp"
#include "util/flags.hpp"

namespace {

using namespace p2p;

/// "" = estimate (monitor mode only); "inf" = immediate departure;
/// otherwise a positive plain decimal.
double parse_gamma(const std::string& token, bool allow_empty) {
  if (token.empty()) {
    P2P_ASSERT_MSG(allow_empty, "--gamma is required in --emit mode");
    return 0;
  }
  const double gamma = engine::parse_number(
      token, token, /*allow_inf=*/true, "--gamma expects a rate or inf");
  P2P_ASSERT_MSG(gamma > 0, "--gamma must be positive (got \"" + token +
                                "\")");
  return gamma;
}

/// Opens --out for streaming ('-' or "" = stdout). Aborts on failure.
std::FILE* open_out(const std::string& path) {
  if (path.empty() || path == "-") return stdout;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  P2P_ASSERT_MSG(f != nullptr, "cannot open --out file " + path);
  return f;
}

void write_all(std::FILE* f, const std::string& bytes,
               const std::string& path) {
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  P2P_ASSERT_MSG(written == bytes.size(), "short write to " + path);
}

int run_emit(const std::string& emit_spec, int k, double us, double mu,
             const std::string& gamma_spec, const std::string& mix_spec,
             const std::string& backend_spec, int seed,
             const std::string& format, const std::string& out_path) {
  P2P_ASSERT_MSG(format == "csv" || format == "jsonl",
                 "--format must be csv or jsonl (got \"" + format + "\")");
  const double gamma = parse_gamma(gamma_spec, /*allow_empty=*/false);

  engine::ScenarioSpec scenario;
  if (!mix_spec.empty()) scenario = engine::parse_scenario(mix_spec);
  engine::CellParams cell;
  cell.k = k;
  cell.mix = scenario.empty() ? 0.0 : 1.0;
  engine::check_cell_scenario(scenario, cell);

  // Schedule grammar: ';'-separated lambda:duration segments.
  std::vector<LogSegment> segments;
  for (const std::string& seg : engine::split_list(emit_spec, ';')) {
    const auto parts = engine::split_list(seg, ':');
    P2P_ASSERT_MSG(parts.size() == 2,
                   "--emit segments are lambda:duration (got \"" + seg +
                       "\")");
    cell.lambda = engine::parse_number(parts[0], emit_spec, false,
                                       "--emit lambda must be a number");
    const double duration = engine::parse_number(
        parts[1], emit_spec, false, "--emit duration must be a number");
    std::vector<ArrivalSpec> arrivals;
    engine::expand_arrivals(scenario, cell, arrivals);
    segments.push_back(
        {SwarmParams(k, us, mu, gamma, std::move(arrivals)), duration});
  }

  EventLogOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  if (backend_spec == "typecount") {
    options.backend = EventLogBackend::kTypeCount;
  } else if (backend_spec == "perpeer") {
    options.backend = EventLogBackend::kPerPeer;
  } else {
    P2P_ASSERT_MSG(false, "--backend must be typecount or perpeer (got \"" +
                              backend_spec + "\")");
  }

  std::FILE* out = open_out(out_path);
  std::string buffer;
  if (format == "csv") buffer = event_log_csv_header();
  std::size_t events = 0;
  generate_event_log(segments, options, [&](const SwarmEvent& event) {
    if (format == "csv") {
      append_event_csv(buffer, event);
    } else {
      append_event_json(buffer, event);
    }
    ++events;
    if (buffer.size() >= 1 << 16) {
      write_all(out, buffer, out_path);
      buffer.clear();
    }
  });
  write_all(out, buffer, out_path);
  if (out != stdout) {
    P2P_ASSERT_MSG(std::fclose(out) == 0, "short write to " + out_path);
  } else {
    std::fflush(out);
  }
  std::fprintf(stderr, "p2p_monitor: emitted %zu events (%zu segments)\n",
               events, segments.size());
  return 0;
}

int run_monitor(const std::string& in_path, const std::string& out_path,
                service::MonitorConfig config) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (!in_path.empty() && in_path != "-") {
    file.open(in_path);
    P2P_ASSERT_MSG(file.is_open(), "cannot open --in file " + in_path);
    in = &file;
  }

  std::FILE* out = open_out(out_path);
  service::StabilityMonitor monitor(config);
  const service::AdvisorySink sink = [&](const service::Advisory& advisory) {
    write_all(out, service::advisory_json_line(advisory), out_path);
  };

  std::string line;
  std::size_t line_number = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line_number == 1 && line + "\n" == event_log_csv_header()) {
      continue;  // CSV header; JSON-lines input has none
    }
    const SwarmEvent event =
        parse_event_line(line, line_number, config.num_pieces);
    monitor.feed(event, line, line_number, sink);
  }
  monitor.finish(sink);

  if (out != stdout) {
    P2P_ASSERT_MSG(std::fclose(out) == 0, "short write to " + out_path);
  } else {
    std::fflush(out);
  }
  std::fprintf(stderr,
               "p2p_monitor: %zu events, final status %s, %zu verdict "
               "flip(s)\n",
               monitor.events_processed(), to_string(monitor.verdict()),
               monitor.flips());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int k = flags.get_int("k", 0, "piece count K of the swarm (required)");
  const std::string in_path = flags.get_string(
      "in", "-", "event log to replay ('-' = stdin); CSV or JSON lines");
  const std::string out_path = flags.get_string(
      "out", "-", "advisory (or emitted log) destination ('-' = stdout)");
  const double window = flags.get_double(
      "window", 60.0, "sliding estimation window, log-time units");
  const int buckets = flags.get_int(
      "buckets", 64, "window ring resolution (buckets per window)");
  const double every = flags.get_double(
      "every", 1.0, "advisory cadence: one line per this much log time");
  const double hyst_enter = flags.get_double(
      "hyst-enter", 0.05,
      "margin at or above which the filtered verdict becomes stable");
  const double hyst_exit = flags.get_double(
      "hyst-exit", -0.05,
      "margin at or below which the filtered verdict becomes unstable");
  const std::string gamma_spec = flags.get_string(
      "gamma", "",
      "peer-seed departure rate: monitor mode pins the estimator ('' = "
      "estimate from the log; 'inf' allowed); required in --emit mode");
  const std::string emit_spec = flags.get_string(
      "emit", "",
      "emit mode: ';'-separated lambda:duration schedule of a synthetic "
      "trace (population carries across segments)");
  const double us =
      flags.get_double("us", 1.0, "emit mode: fixed-seed rate Us");
  const double mu =
      flags.get_double("mu", 1.0, "emit mode: per-peer contact rate mu");
  const std::string mix_spec = flags.get_string(
      "mix", "",
      "emit mode: typed-arrival scenario (example2[:w12,w34] | "
      "example3[:w1,w2,w3] | oneclub:K; '' = empty-arrival stream)");
  const std::string backend_spec = flags.get_string(
      "backend", "typecount", "emit mode: typecount | perpeer");
  const int seed = flags.get_int("seed", 1, "emit mode: root RNG seed");
  const std::string format = flags.get_string(
      "format", "csv", "emit mode: event log format, csv | jsonl");
  flags.finish();

  P2P_ASSERT_MSG(k >= 1 && k <= 16, "--k is required and must be in [1, 16]");

  if (!emit_spec.empty()) {
    return run_emit(emit_spec, k, us, mu, gamma_spec, mix_spec, backend_spec,
                    seed, format, out_path);
  }

  service::MonitorConfig config;
  config.num_pieces = k;
  config.window = window;
  config.buckets = buckets;
  config.advice_every = every;
  config.hyst_enter = hyst_enter;
  config.hyst_exit = hyst_exit;
  config.pinned_gamma = parse_gamma(gamma_spec, /*allow_empty=*/true);
  return run_monitor(in_path, out_path, config);
}
