// In-memory span tracer for the benchmark's traced runs.
//
// Spans are opened and closed on the driving thread around calls into
// the library's layers; nesting follows the open-span stack, so each
// span records its parent. A span carries the traced pass ("run") it
// belongs to. High-frequency layer calls (one per event) are recorded
// as tallies instead of individual spans: one record per (parent, name)
// that accumulates busy time and a call count, so a traced pass over
// half a million events stays a few records long.
//
// Self time is a record's busy time minus the busy time of its direct
// children. Nothing is written while the run is measuring; to_json()
// renders every record once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  int parent = -1;
  int run = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// end - start for a span; the summed call durations for a tally.
  std::int64_t busy_ns = 0;
  /// 1 for a span; the number of calls folded into a tally.
  std::int64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Starts the next traced pass; records opened from now on carry its id.
  void begin_run() { ++run_; }

  /// Opens a span under the innermost open span; returns its id (-1 when
  /// tracing is off).
  int open(const std::string& name) {
    if (!enabled_) return -1;
    const std::int64_t now = to_ns(Clock::now());
    records_.push_back({name, top(), run_, now, now, 0, 1});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    SpanRecord& r = records_[static_cast<std::size_t>(id)];
    r.end_ns = to_ns(Clock::now());
    r.busy_ns = r.end_ns - r.start_ns;
    stack_.pop_back();
  }

  /// A tally under the innermost open span, or under `parent` (a span or
  /// tally id) when given; -1 when tracing is off.
  int tally(const std::string& name, int parent = -1) {
    if (!enabled_) return -1;
    records_.push_back({name, parent >= 0 ? parent : top(), run_, 0, 0, 0, 0});
    return static_cast<int>(records_.size()) - 1;
  }

  /// Folds one call [t0, t1] into a tally.
  void add(int id, Clock::time_point t0, Clock::time_point t1) {
    SpanRecord& r = records_[static_cast<std::size_t>(id)];
    const std::int64_t a = to_ns(t0), b = to_ns(t1);
    if (r.count == 0) r.start_ns = a;
    r.end_ns = b;
    r.busy_ns += b - a;
    r.count += 1;
  }

  /// Self time of every record: busy time minus its children's.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[i] = records_[i].busy_ns;
    }
    for (const SpanRecord& r : records_) {
      if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= r.busy_ns;
    }
    return self;
  }

  /// Summed self seconds and busy seconds per record name.
  std::map<std::string, double> self_seconds() const {
    std::map<std::string, double> out;
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out[records_[i].name] += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
  }
  std::map<std::string, double> busy_seconds() const {
    std::map<std::string, double> out;
    for (const SpanRecord& r : records_) {
      out[r.name] += static_cast<double>(r.busy_ns) * 1e-9;
    }
    return out;
  }

  /// Every record as a JSON array, timestamps relative to the first.
  std::string to_json() const {
    const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
    const std::vector<std::int64_t> self = self_ns();
    std::string out = "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const SpanRecord& r = records_[i];
      out += "  {\"id\": " + std::to_string(i) + ", \"name\": \"" + r.name +
             "\", \"parent\": " + std::to_string(r.parent) +
             ", \"run\": " + std::to_string(r.run) +
             ", \"start_ns\": " + std::to_string(r.start_ns - t0) +
             ", \"end_ns\": " + std::to_string(r.end_ns - t0) +
             ", \"busy_ns\": " + std::to_string(r.busy_ns) +
             ", \"self_ns\": " + std::to_string(self[i]) +
             ", \"count\": " + std::to_string(r.count) + "}";
      out += i + 1 < records_.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
  }

 private:
  int top() const { return stack_.empty() ? -1 : stack_.back(); }

  bool enabled_;
  int run_ = 0;
  std::vector<SpanRecord> records_;
  std::vector<int> stack_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
