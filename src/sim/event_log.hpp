// Swarm event logs: a SwarmBackend run serialized as a replayable stream
// of discrete events — the wire format the live stability monitor
// (service/monitor.hpp) ingests and the ground-truth generator the test
// layer replays.
//
// Four event kinds cover every state change of the Zhu–Hajek chain:
//
//   arrive  a peer enters, carrying its arrival type
//   depart  a peer leaves (a peer seed's Exp(gamma) dwell expiring, or
//           the immediate departure after a completing download)
//   piece   a peer-to-peer transfer: the target's type BEFORE the
//           download plus the piece index it received
//   seed    the same transfer, uploaded by the fixed seed (the Us term)
//
// Every line carries an explicit timestamp — there is no wall clock
// anywhere in this layer or in the monitor, so a recorded log replays
// byte-identically forever. Two serializations share one grammar:
//
//   CSV (with header):   t,event,type,piece
//                        0.125,arrive,0,
//                        0.75,piece,1,1
//   JSON lines:          {"t": 0.125, "event": "arrive", "type": 0}
//                        {"t": 0.75, "event": "piece", "type": 1, "piece": 1}
//
// `type` is the peer's piece-set bitmask (decimal); `piece` is present
// exactly for the transfer kinds. Timestamps are format_number's
// shortest-round-trip decimals, so parsing reproduces the emitting
// backend's doubles bit for bit. parse_event_line is strict and aborts
// echoing the offending line verbatim (the csv_reader convention):
// event logs are either recorded artifacts or live feeds from a shim,
// and a malformed line is a bug to surface, never data to repair.
//
// The emitter drives any SwarmBackend through its event observer
// (sim/backend.hpp): each backend reports its own state changes as it
// applies them, so the per-peer and the type-count backend produce logs
// in the same grammar (silent contacts change nothing and emit nothing). A
// piecewise-parameter schedule generates frontier-crossing traces with
// labeled ground truth: each segment runs under its own SwarmParams, and
// the population carries across the boundary.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/state.hpp"
#include "sim/backend.hpp"

namespace p2p {

const char* to_string(SwarmEventKind kind);

/// The CSV schema: {"t", "event", "type", "piece"}.
const std::vector<std::string>& event_log_columns();
/// "t,event,type,piece\n" — the header line every CSV event log starts
/// with (and the byte signature the corpus tests and the monitor use to
/// tell an event log from a sweep report).
std::string event_log_csv_header();

/// One '\n'-terminated CSV record (piece cell empty for arrive/depart).
void append_event_csv(std::string& out, const SwarmEvent& event);
/// One '\n'-terminated JSON-lines object.
void append_event_json(std::string& out, const SwarmEvent& event);

/// Parses one event line — a CSV record (no header) or a JSON-lines
/// object, auto-detected by the leading '{'. Aborts echoing the
/// 1-based `line_number` and the line verbatim on: malformed numbers,
/// unknown event kinds, a type mask outside [0, 2^num_pieces), a
/// missing/extra piece field, a piece index outside [0, num_pieces), or
/// a transfer delivering a piece the target already holds.
SwarmEvent parse_event_line(const std::string& line, std::size_t line_number,
                            int num_pieces);

/// Steps `backend` until its clock passes `t_end`, forwarding the events
/// its observer reports, with timestamps shifted by `t_offset`. The step
/// drawn past t_end is discarded together with its events, so the
/// returned state — the backend's starting population replayed through
/// the forwarded events — is the population exactly at t_end, the state
/// a follow-on segment must be injected with. A download that completes
/// a peer under immediate departure emits its transfer and the departure
/// back to back at the same timestamp. Replaces any observer installed
/// on `backend` and detaches on return. K <= 16.
TypeCountState record_events(SwarmBackend& backend, double t_end,
                             double t_offset, const SwarmEventSink& emit);

enum class EventLogBackend { kTypeCount, kPerPeer };

/// One stretch of a piecewise-stationary trace.
struct LogSegment {
  SwarmParams params;
  double duration = 0;
};

struct EventLogOptions {
  EventLogBackend backend = EventLogBackend::kTypeCount;
  std::uint64_t seed = 1;
};

/// Runs the segments back to back from an empty swarm, carrying the
/// population across each boundary (peers present at a boundary are
/// re-injected into the next segment's backend; injection is not an
/// arrival, so the log stays consistent: a replayer tracking state from
/// the events alone sees the same population the simulator holds).
/// Segments must share K; a segment may not switch to immediate
/// departure while peer seeds are carried (they could never depart in
/// the log). Per-segment RNG streams derive from (seed, segment), so a
/// schedule is one deterministic artifact.
void generate_event_log(const std::vector<LogSegment>& segments,
                        const EventLogOptions& options,
                        const SwarmEventSink& emit);

}  // namespace p2p
