// sim/event_log.hpp: the swarm event grammar (CSV + JSON lines), the
// strict fail-fast parser, and the SwarmBackend-driven emitter.
//
// The emitter's contract is that the log is a lossless record of the
// state trajectory: replaying the events alone reconstructs the exact
// type-count state the simulator ended with, on either backend. The
// parser's contract is the csv_reader convention — malformed input
// aborts echoing the offending line verbatim, never repairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/state.hpp"
#include "sim/event_log.hpp"
#include "sim/swarm.hpp"
#include "sim/typecount_sim.hpp"

namespace p2p {
namespace {

TEST(EventLog, CsvRoundTripsThroughTheParser) {
  const std::vector<SwarmEvent> events = {
      {0.125, SwarmEventKind::kArrive, 0, -1},
      {0.75, SwarmEventKind::kPiece, 1, 1},
      {0.75, SwarmEventKind::kSeed, 3, 2},
      {2.5, SwarmEventKind::kDepart, 7, -1},
  };
  std::size_t line_number = 0;
  for (const SwarmEvent& event : events) {
    std::string line;
    append_event_csv(line, event);
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    EXPECT_EQ(parse_event_line(line, ++line_number, 3), event) << line;
  }
}

TEST(EventLog, JsonRoundTripsThroughTheParser) {
  // Each event with its exact archived line: with a piece, without one,
  // and a timestamp in scientific notation.
  const std::vector<std::pair<SwarmEvent, std::string>> events = {
      {{0.0, SwarmEventKind::kArrive, 5, -1},
       "{\"t\": 0, \"event\": \"arrive\", \"type\": 5}\n"},
      {{1e-9, SwarmEventKind::kPiece, 5, 1},
       "{\"t\": 1e-09, \"event\": \"piece\", \"type\": 5, "
       "\"piece\": 1}\n"},
      {{3.25, SwarmEventKind::kDepart, 7, -1},
       "{\"t\": 3.25, \"event\": \"depart\", \"type\": 7}\n"},
  };
  for (const auto& [event, want] : events) {
    std::string line;
    append_event_json(line, event);
    EXPECT_EQ(line, want);
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    EXPECT_EQ(parse_event_line(line, 1, 3), event) << line;
  }
}

TEST(EventLog, HeaderMatchesTheColumnSchema) {
  EXPECT_EQ(event_log_csv_header(), "t,event,type,piece\n");
  EXPECT_EQ(event_log_columns(),
            (std::vector<std::string>{"t", "event", "type", "piece"}));
}

TEST(EventLogDeathTest, MalformedLinesAbortEchoingTheLine) {
  // Malformed timestamp (strtod would accept "nan"/"inf"; the shape
  // gate must not).
  EXPECT_DEATH(parse_event_line("abc,arrive,0,", 7, 3), "line 7");
  EXPECT_DEATH(parse_event_line("nan,arrive,0,", 1, 3), "timestamp");
  EXPECT_DEATH(parse_event_line("inf,arrive,0,", 1, 3), "timestamp");
  EXPECT_DEATH(parse_event_line("-1,arrive,0,", 1, 3), "nonnegative");
  // Unknown kind, echoed verbatim.
  EXPECT_DEATH(parse_event_line("1.5,vanish,0,", 2, 3),
               "unknown event kind");
  EXPECT_DEATH(parse_event_line("1.5,vanish,0,", 2, 3),
               "got \"1.5,vanish,0,\"");
  // Truncated / wrong arity.
  EXPECT_DEATH(parse_event_line("1.5,arrive,0", 1, 3), "4 cells");
  EXPECT_DEATH(parse_event_line("1.5,arr", 1, 3), "4 cells");
  EXPECT_DEATH(parse_event_line("1.5,arrive,0,,", 1, 3), "4 cells");
  EXPECT_DEATH(parse_event_line("", 1, 3), "4 cells");
  // The shared decimal gate: no '+', no leading '.', no underflow to 0.
  EXPECT_DEATH(parse_event_line("+1,arrive,0,", 1, 3), "timestamp");
  EXPECT_DEATH(parse_event_line(".5,arrive,0,", 1, 3), "timestamp");
  EXPECT_DEATH(parse_event_line("1e-400,arrive,0,", 1, 3), "timestamp");
  // Type mask out of the K = 3 collection; non-numeric masks.
  EXPECT_DEATH(parse_event_line("1.5,arrive,8,", 1, 3), "type mask");
  EXPECT_DEATH(parse_event_line("1.5,arrive,99999999999999999999,", 1, 3),
               "type mask exceeds");
  EXPECT_DEATH(parse_event_line("1.5,piece,1,99999999999999999999", 1, 3),
               "outside");
  EXPECT_DEATH(parse_event_line("1.5,arrive,-1,", 1, 3), "type mask");
  EXPECT_DEATH(parse_event_line("1.5,arrive,2x,", 1, 3), "type mask");
  // Piece-field presence must match the kind.
  EXPECT_DEATH(parse_event_line("1.5,piece,1,", 1, 3), "need a piece");
  EXPECT_DEATH(parse_event_line("1.5,arrive,0,2", 1, 3), "no piece");
  EXPECT_DEATH(parse_event_line("1.5,piece,1,3", 1, 3), "outside");
  // A transfer delivering a piece the target already holds.
  EXPECT_DEATH(parse_event_line("1.5,piece,1,0", 1, 3), "already holds");
  EXPECT_DEATH(parse_event_line("1.5,seed,7,1", 1, 3), "already holds");
}

TEST(EventLogDeathTest, MalformedJsonLinesAbort) {
  // Key order is part of the protocol.
  EXPECT_DEATH(
      parse_event_line("{\"event\": \"arrive\", \"t\": 1, \"type\": 0}", 1, 3),
      "expected key");
  EXPECT_DEATH(parse_event_line("{\"t\": 1, \"event\": \"arrive\"}", 1, 3),
               "expected");
  EXPECT_DEATH(
      parse_event_line("{\"t\": 1, \"event\": \"arrive\", \"type\": 0} x", 1,
                       3),
      "trailing bytes");
  EXPECT_DEATH(
      parse_event_line("{\"t\": 1, \"event\": \"arrive, \"type\": 0}", 1, 3),
      "");
  // Transfer kinds still need the piece field in JSON.
  EXPECT_DEATH(
      parse_event_line("{\"t\": 1, \"event\": \"piece\", \"type\": 1}", 1, 3),
      "need a piece");
}

TEST(EventLogDeathTest, ParserRejectsUnsupportedPieceCounts) {
  EXPECT_DEATH(parse_event_line("1,arrive,0,", 1, 0), "K in \\[1, 16\\]");
  EXPECT_DEATH(parse_event_line("1,arrive,0,", 1, 17), "K in \\[1, 16\\]");
}

/// Replays a recorded event stream into a bare TypeCountState, starting
/// from `state` — the reconstruction a monitor (or any consumer)
/// performs. Aborts via the TypeCountState invariants if the log ever
/// goes inconsistent.
TypeCountState replay(const std::vector<SwarmEvent>& events,
                      TypeCountState state) {
  for (const SwarmEvent& event : events) {
    switch (event.kind) {
      case SwarmEventKind::kArrive:
        state.add(PieceSet(event.type), 1);
        break;
      case SwarmEventKind::kDepart:
        state.add(PieceSet(event.type), -1);
        break;
      case SwarmEventKind::kPiece:
      case SwarmEventKind::kSeed:
        state.transfer(PieceSet(event.type),
                       PieceSet(event.type |
                                (std::uint64_t{1} << event.piece)));
        break;
    }
  }
  return state;
}

std::unique_ptr<SwarmBackend> make_backend(bool typecount,
                                           const SwarmParams& params,
                                           std::uint64_t seed) {
  if (typecount) {
    TypeCountSimOptions options;
    options.rng_seed = seed;
    return std::make_unique<TypeCountSim>(params, options);
  }
  SwarmSimOptions options;
  options.rng_seed = seed;
  return std::make_unique<SwarmSim>(params, options);
}

/// The population `twin` holds at t_end, found by stepping it and
/// keeping the last state whose event landed by t_end. A twin built with
/// the same params, seed and start follows the same trajectory.
TypeCountState state_at(SwarmBackend& twin, double t_end) {
  TypeCountState state = twin.type_counts();
  while (twin.step() && twin.now() <= t_end) state = twin.type_counts();
  return state;
}

TEST(EventLog, RecordedEventsReconstructTheFinalStateOnBothBackends) {
  struct Case {
    const char* name;
    SwarmParams params;
    std::vector<std::pair<PieceSet, std::int64_t>> start;  // injected
    double t_end;
    double t_offset;
  };
  const std::vector<Case> cases = {
      {"K = 3 from empty",
       SwarmParams(3, 1.0, 1.0, 2.0, {{PieceSet{}, 2.0}}),
       {},
       80.0,
       0.0},
      {"K = 8 from a mixed start",
       SwarmParams(8, 1.0, 1.0, 2.0, {{PieceSet{}, 2.0}}),
       {{PieceSet{}, 20},
        {PieceSet::full(8).without(0), 30},
        {PieceSet::full(8), 5}},
       40.0,
       0.0},
      // Completing downloads log a transfer and a departure at one
      // timestamp.
      {"immediate departure",
       SwarmParams(2, 1.0, 1.0, kInfiniteRate, {{PieceSet{}, 1.5}}),
       {{PieceSet::single(1), 25}},
       60.0,
       0.0},
      // A later segment of a schedule: shifted timestamps, carried start.
      {"segment boundary",
       SwarmParams(3, 1.0, 1.0, 2.0, {{PieceSet{}, 3.0}}),
       {{PieceSet::single(2), 10}, {PieceSet::full(3), 4}},
       35.0,
       120.0},
  };
  for (const Case& c : cases) {
    for (const bool typecount : {true, false}) {
      SCOPED_TRACE(std::string(c.name) +
                   (typecount ? ", typecount" : ", perpeer"));
      const std::unique_ptr<SwarmBackend> backend =
          make_backend(typecount, c.params, 11);
      const std::unique_ptr<SwarmBackend> twin =
          make_backend(typecount, c.params, 11);
      TypeCountState start(c.params.num_pieces());
      for (const auto& [type, count] : c.start) {
        backend->inject_peers(type, count);
        twin->inject_peers(type, count);
        start.add(type, count);
      }
      std::vector<SwarmEvent> events;
      const TypeCountState final_state =
          record_events(*backend, c.t_end, c.t_offset,
                        [&](const SwarmEvent& e) { events.push_back(e); });
      ASSERT_GE(events.size(), 50u);

      // The step that crossed t_end was drawn and discarded: the carried
      // state is the population at t_end, not after that draw (every
      // type-count step changes the state, so there it must differ).
      EXPECT_GT(backend->now(), c.t_end);
      EXPECT_EQ(final_state, state_at(*twin, c.t_end));
      if (typecount) {
        EXPECT_NE(backend->type_counts(), final_state);
      }

      // Timestamps are within the shifted horizon and never go back.
      double prev = c.t_offset;
      for (const SwarmEvent& event : events) {
        EXPECT_GE(event.t, prev);
        EXPECT_LE(event.t, c.t_offset + c.t_end);
        prev = event.t;
      }
      // The events alone rebuild the carried state from the start.
      EXPECT_EQ(replay(events, start), final_state);
      // And every emitted event is grammatical: it survives a CSV
      // round-trip through the strict parser.
      std::size_t line_number = 0;
      for (const SwarmEvent& event : events) {
        std::string line;
        append_event_csv(line, event);
        line.pop_back();
        EXPECT_EQ(parse_event_line(line, ++line_number,
                                   c.params.num_pieces()),
                  event);
      }
    }
  }
}

TEST(EventLog, ImmediateDepartureEmitsTransferThenDepartAtOneTimestamp) {
  // gamma = infinity: a completing download must log both the transfer
  // and the departure, at the same timestamp, in that order.
  const SwarmParams params(2, 1.0, 1.0, kInfiniteRate, {{PieceSet{}, 1.5}});
  for (const bool typecount : {true, false}) {
    SCOPED_TRACE(typecount ? "typecount" : "perpeer");
    const std::unique_ptr<SwarmBackend> backend =
        make_backend(typecount, params, 5);
    std::vector<SwarmEvent> events;
    const TypeCountState final_state = record_events(
        *backend, 60.0, 0.0,
        [&](const SwarmEvent& e) { events.push_back(e); });

    std::size_t departures = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind != SwarmEventKind::kDepart) continue;
      ++departures;
      EXPECT_EQ(events[i].type, 3u);  // only full peers depart
      ASSERT_GT(i, 0u);
      const SwarmEvent& prev = events[i - 1];
      EXPECT_TRUE(prev.kind == SwarmEventKind::kPiece ||
                  prev.kind == SwarmEventKind::kSeed);
      EXPECT_EQ(prev.t, events[i].t);
      EXPECT_EQ(prev.type | (std::uint64_t{1} << prev.piece), 3u);
    }
    EXPECT_GE(departures, 5u);
    EXPECT_EQ(final_state.seeds(), 0);  // nobody lingers at gamma = inf
    EXPECT_EQ(replay(events, TypeCountState(2)), final_state);
  }
}

TEST(EventLog, SegmentScheduleCarriesThePopulationAcrossBoundaries) {
  // Two segments with different loads: the trace stays consistent (the
  // replayed state never goes negative) and event times are strictly
  // increasing across the boundary offset.
  const auto mk = [](double lambda) {
    return SwarmParams(2, 1.0, 1.0, 2.0, {{PieceSet{}, lambda}});
  };
  EventLogOptions options;
  options.seed = 9;
  std::vector<SwarmEvent> events;
  generate_event_log({{mk(1.0), 40.0}, {mk(3.0), 40.0}}, options,
                     [&](const SwarmEvent& e) { events.push_back(e); });
  ASSERT_GE(events.size(), 50u);
  double prev = 0;
  bool saw_second_segment = false;
  for (const SwarmEvent& event : events) {
    EXPECT_GE(event.t, prev);
    prev = event.t;
    saw_second_segment |= event.t > 40.0;
  }
  EXPECT_TRUE(saw_second_segment);
  EXPECT_LE(prev, 80.0);
  // Replay succeeds end to end: injected carried peers were never
  // logged as arrivals, so the stream is self-consistent... but then
  // the replayed state must differ from an empty swarm only by the
  // events themselves (TypeCountState::add aborts on any negative).
  const TypeCountState replayed = replay(events, TypeCountState(2));
  EXPECT_GE(replayed.total_peers(), 0);

  // Determinism: the same seed yields the identical event sequence.
  std::vector<SwarmEvent> again;
  generate_event_log({{mk(1.0), 40.0}, {mk(3.0), 40.0}}, options,
                     [&](const SwarmEvent& e) { again.push_back(e); });
  EXPECT_EQ(events, again);
}

TEST(EventLogDeathTest, GeneratorRejectsBadSchedules) {
  const SwarmParams ok(2, 1.0, 1.0, 2.0, {{PieceSet{}, 1.0}});
  EXPECT_DEATH(generate_event_log({}, {}, [](const SwarmEvent&) {}),
               "at least one segment");
  EXPECT_DEATH(
      generate_event_log({{ok, 0.0}}, {}, [](const SwarmEvent&) {}),
      "positive and finite");
  const SwarmParams other_k(3, 1.0, 1.0, 2.0, {{PieceSet{}, 1.0}});
  EXPECT_DEATH(generate_event_log({{ok, 10.0}, {other_k, 10.0}}, {},
                                  [](const SwarmEvent&) {}),
               "share the piece count");
  // Carrying peer seeds into an immediate-departure segment would leave
  // peers the log can never retire: hard error. (Slow departures and a
  // long first segment make leftover seeds a near-certainty; the fixed
  // seed makes the death deterministic.)
  const SwarmParams slow(2, 1.0, 1.0, 0.001, {{PieceSet{}, 3.0}});
  const SwarmParams imm(2, 1.0, 1.0, kInfiniteRate, {{PieceSet{}, 1.0}});
  EventLogOptions options;
  options.seed = 3;
  EXPECT_DEATH(generate_event_log({{slow, 30.0}, {imm, 10.0}}, options,
                                  [](const SwarmEvent&) {}),
               "immediate-departure");
}

}  // namespace
}  // namespace p2p
