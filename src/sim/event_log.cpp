#include "sim/event_log.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <memory>
#include <string_view>
#include <system_error>
#include <vector>

#include "engine/parse_util.hpp"
#include "engine/report.hpp"
#include "rand/rng.hpp"
#include "sim/swarm.hpp"
#include "sim/typecount_sim.hpp"

namespace p2p {

namespace {

using engine::format_number_into;

[[noreturn]] void bad_line(std::size_t line_number, const std::string& line,
                           const std::string& reason) {
  detail::assert_fail("parse_event_line", __FILE__, __LINE__,
                      "event log line " + std::to_string(line_number) + ": " +
                          reason + " (got \"" + line + "\")");
}

/// Nonnegative decimal integer, full consumption, no signs/whitespace.
std::uint64_t parse_uint_field(std::string_view cell, std::size_t line_number,
                               const std::string& line, const char* what) {
  if (cell.empty()) bad_line(line_number, line, std::string(what) + " missing");
  for (const char c : cell) {
    if (c < '0' || c > '9') {
      bad_line(line_number, line,
               std::string(what) + " must be a nonnegative decimal integer");
    }
  }
  // All digits, so from_chars consumes the whole cell. A value past
  // 2^64 - 1 saturates, so it fails finish_event's range checks with
  // their own message.
  std::uint64_t v = 0;
  const auto result =
      std::from_chars(cell.data(), cell.data() + cell.size(), v);
  if (result.ec == std::errc::result_out_of_range) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return v;
}

SwarmEventKind parse_kind(std::string_view cell, std::size_t line_number,
                          const std::string& line) {
  if (cell == "arrive") return SwarmEventKind::kArrive;
  if (cell == "depart") return SwarmEventKind::kDepart;
  if (cell == "piece") return SwarmEventKind::kPiece;
  if (cell == "seed") return SwarmEventKind::kSeed;
  bad_line(line_number, line,
           "unknown event kind \"" + std::string(cell) + "\"");
}

double parse_time_field(std::string_view cell, std::size_t line_number,
                        const std::string& line) {
  double t = 0;
  if (!engine::parse_plain_decimal(cell, &t) || t < 0) {
    bad_line(line_number, line,
             "timestamp must be a finite nonnegative decimal");
  }
  return t;
}

SwarmEvent finish_event(double t, SwarmEventKind kind, std::uint64_t type,
                        bool has_piece, std::uint64_t piece,
                        std::size_t line_number, const std::string& line,
                        int num_pieces) {
  SwarmEvent event;
  event.t = t;
  event.kind = kind;
  event.type = type;
  const std::uint64_t full = PieceSet::full(num_pieces).mask();
  if (type > full) {
    bad_line(line_number, line,
             "type mask exceeds the K = " + std::to_string(num_pieces) +
                 " piece collection");
  }
  const bool transfer = kind == SwarmEventKind::kPiece ||
                        kind == SwarmEventKind::kSeed;
  if (transfer != has_piece) {
    bad_line(line_number, line,
             transfer ? "transfer events need a piece index"
                      : "arrive/depart events carry no piece index");
  }
  if (transfer) {
    if (piece >= static_cast<std::uint64_t>(num_pieces)) {
      bad_line(line_number, line, "piece index outside [0, K)");
    }
    event.piece = static_cast<int>(piece);
    if (PieceSet(type).contains(event.piece)) {
      bad_line(line_number, line, "target already holds the piece");
    }
  }
  return event;
}

SwarmEvent parse_event_csv(const std::string& line, std::size_t line_number,
                           int num_pieces) {
  std::string_view cells[4];
  std::size_t n = 0;  // cells seen
  std::string_view rest = line;
  while (true) {
    const std::size_t comma = rest.find(',');
    if (n < 4) cells[n] = rest.substr(0, comma);
    ++n;
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  if (n != 4) {
    bad_line(line_number, line, "expected 4 cells (t,event,type,piece)");
  }
  const double t = parse_time_field(cells[0], line_number, line);
  const SwarmEventKind kind = parse_kind(cells[1], line_number, line);
  const std::uint64_t type =
      parse_uint_field(cells[2], line_number, line, "type mask");
  const bool has_piece = !cells[3].empty();
  const std::uint64_t piece =
      has_piece ? parse_uint_field(cells[3], line_number, line, "piece index")
                : 0;
  return finish_event(t, kind, type, has_piece, piece, line_number, line,
                      num_pieces);
}

/// Strict scanner for the fixed-shape JSON lines append_event_json
/// emits: {"t": T, "event": "K", "type": M[, "piece": P]}. Whitespace
/// between tokens is free; keys, their order and the value shapes are
/// not — an event feed is a machine protocol, and lenient parsing would
/// let a malformed producer drift silently.
class JsonLineScanner {
 public:
  JsonLineScanner(const std::string& line, std::size_t line_number)
      : line_(line), line_number_(line_number) {}

  void expect(char c) {
    skip_space();
    if (pos_ >= line_.size() || line_[pos_] != c) {
      bad_line(line_number_, line_,
               std::string("expected '") + c + "' in JSON event");
    }
    ++pos_;
  }

  void key(const char* name) {
    expect('"');
    const std::string want(name);
    if (line_.compare(pos_, want.size(), want) != 0 ||
        pos_ + want.size() >= line_.size() ||
        line_[pos_ + want.size()] != '"') {
      bad_line(line_number_, line_,
               "expected key \"" + want + "\" in JSON event");
    }
    pos_ += want.size() + 1;
    expect(':');
  }

  std::string_view bare_token() {
    skip_space();
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != ',' && line_[pos_] != '}' &&
           !std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) {
      bad_line(line_number_, line_, "expected a value in JSON event");
    }
    return std::string_view(line_).substr(start, pos_ - start);
  }

  std::string_view quoted_token() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != '"') ++pos_;
    if (pos_ >= line_.size()) {
      bad_line(line_number_, line_, "unterminated string in JSON event");
    }
    const std::string_view s =
        std::string_view(line_).substr(start, pos_ - start);
    ++pos_;
    return s;
  }

  bool peek_is(char c) {
    skip_space();
    return pos_ < line_.size() && line_[pos_] == c;
  }

  void expect_end() {
    skip_space();
    if (pos_ != line_.size()) {
      bad_line(line_number_, line_, "trailing bytes after JSON event");
    }
  }

 private:
  void skip_space() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& line_;
  std::size_t line_number_;
  std::size_t pos_ = 0;
};

SwarmEvent parse_event_json(const std::string& line, std::size_t line_number,
                            int num_pieces) {
  JsonLineScanner scan(line, line_number);
  scan.expect('{');
  scan.key("t");
  const double t = parse_time_field(scan.bare_token(), line_number, line);
  scan.expect(',');
  scan.key("event");
  const SwarmEventKind kind =
      parse_kind(scan.quoted_token(), line_number, line);
  scan.expect(',');
  scan.key("type");
  const std::uint64_t type = parse_uint_field(scan.bare_token(), line_number,
                                              line, "type mask");
  bool has_piece = false;
  std::uint64_t piece = 0;
  if (scan.peek_is(',')) {
    scan.expect(',');
    scan.key("piece");
    piece = parse_uint_field(scan.bare_token(), line_number, line,
                             "piece index");
    has_piece = true;
  }
  scan.expect('}');
  scan.expect_end();
  return finish_event(t, kind, type, has_piece, piece, line_number, line,
                      num_pieces);
}

}  // namespace

const char* to_string(SwarmEventKind kind) {
  switch (kind) {
    case SwarmEventKind::kArrive:
      return "arrive";
    case SwarmEventKind::kDepart:
      return "depart";
    case SwarmEventKind::kPiece:
      return "piece";
    case SwarmEventKind::kSeed:
      return "seed";
  }
  return "?";
}

const std::vector<std::string>& event_log_columns() {
  static const std::vector<std::string> columns = {"t", "event", "type",
                                                   "piece"};
  return columns;
}

std::string event_log_csv_header() { return "t,event,type,piece\n"; }

void append_event_csv(std::string& out, const SwarmEvent& event) {
  format_number_into(out, event.t);
  out += ',';
  out += to_string(event.kind);
  out += ',';
  out += std::to_string(event.type);
  out += ',';
  if (event.piece >= 0) out += std::to_string(event.piece);
  out += '\n';
}

void append_event_json(std::string& out, const SwarmEvent& event) {
  out += "{\"t\": ";
  format_number_into(out, event.t);
  out += ", \"event\": \"";
  out += to_string(event.kind);
  out += "\", \"type\": ";
  out += std::to_string(event.type);
  if (event.piece >= 0) {
    out += ", \"piece\": ";
    out += std::to_string(event.piece);
  }
  out += '}';
  out += '\n';
}

SwarmEvent parse_event_line(const std::string& line, std::size_t line_number,
                            int num_pieces) {
  P2P_ASSERT_MSG(num_pieces >= 1 && num_pieces <= 16,
                 "event logs support K in [1, 16]");
  if (!line.empty() && line.front() == '{') {
    return parse_event_json(line, line_number, num_pieces);
  }
  return parse_event_csv(line, line_number, num_pieces);
}

namespace {

/// Replays one event into `state`; TypeCountState aborts on a count
/// going negative, so an inconsistent event cannot pass silently.
void apply_event(TypeCountState& state, const SwarmEvent& event) {
  const PieceSet type(event.type);
  switch (event.kind) {
    case SwarmEventKind::kArrive:
      state.add(type, +1);
      return;
    case SwarmEventKind::kDepart:
      state.add(type, -1);
      return;
    case SwarmEventKind::kPiece:
    case SwarmEventKind::kSeed:
      state.transfer(type, type.with(event.piece));
      return;
  }
}

}  // namespace

TypeCountState record_events(SwarmBackend& backend, double t_end,
                             double t_offset, const SwarmEventSink& emit) {
  TypeCountState state = backend.type_counts();
  // One step's events, held back until the step is known to land by
  // t_end.
  std::vector<SwarmEvent> step_events;
  backend.set_event_observer(
      [&step_events](const SwarmEvent& e) { step_events.push_back(e); });
  while (backend.step() && backend.now() <= t_end) {
    for (SwarmEvent& event : step_events) {
      apply_event(state, event);
      event.t = t_offset + event.t;
      emit(event);
    }
    step_events.clear();
  }
  backend.set_event_observer(nullptr);
  return state;
}

void generate_event_log(const std::vector<LogSegment>& segments,
                        const EventLogOptions& options,
                        const SwarmEventSink& emit) {
  P2P_ASSERT_MSG(!segments.empty(), "event log needs at least one segment");
  const int k = segments.front().params.num_pieces();
  P2P_ASSERT_MSG(k <= 16, "event logs support K in [1, 16]");
  TypeCountState carried(k);
  double offset = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const LogSegment& segment = segments[i];
    P2P_ASSERT_MSG(segment.params.num_pieces() == k,
                   "all log segments must share the piece count K");
    P2P_ASSERT_MSG(segment.duration > 0 && std::isfinite(segment.duration),
                   "log segment durations must be positive and finite");
    P2P_ASSERT_MSG(!(segment.params.immediate_departure() &&
                     carried.count(PieceSet::full(k)) > 0),
                   "cannot carry peer seeds into an immediate-departure "
                   "segment (they could never depart in the log)");
    // Independent per-segment streams from (seed, segment index).
    std::uint64_t sm = options.seed + 0x9E3779B97F4A7C15ULL * (i + 1);
    const std::uint64_t segment_seed = splitmix64(sm);

    std::unique_ptr<SwarmBackend> backend;
    if (options.backend == EventLogBackend::kTypeCount) {
      TypeCountSimOptions sim_options;
      sim_options.rng_seed = segment_seed;
      backend = std::make_unique<TypeCountSim>(segment.params, sim_options);
    } else {
      SwarmSimOptions sim_options;
      sim_options.rng_seed = segment_seed;
      backend = std::make_unique<SwarmSim>(segment.params, sim_options);
    }
    for (std::uint64_t m = 0; m < carried.num_types(); ++m) {
      if (carried.count(m) > 0) {
        backend->inject_peers(PieceSet(m), carried.count(m));
      }
    }
    carried = record_events(*backend, segment.duration, offset, emit);
    offset += segment.duration;
  }
}

}  // namespace p2p
