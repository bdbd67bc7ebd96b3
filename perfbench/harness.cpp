// perfbench_harness: runs one benchmark workload against the library and
// prints one JSON object with its metrics and output-check counts.
//
//   perfbench_harness --workload theory_region --seed 7 --seconds 10
//       --trace 0 --work-dir DIR
//
// Every input is generated from --seed; the library only ever sees the
// generated inputs. A run sets the workload up at least five times and
// for at least 3 s (the fastest is setup_s; set-up includes one untimed
// warm-up pass), then repeats the timed pass until --seconds have
// elapsed and reports the fastest pass. With --trace 1 it instead
// measures untraced passes and traced passes for half the time each,
// runs the layer probes, writes the span records next to DIR, and
// reports the per-layer metrics.
//
// perfbench/run.py builds this binary and wraps its output; see
// perfbench/NOTES.md for what each workload and metric is for.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/heatmap.hpp"
#include "analysis/phase_diagram.hpp"
#include "core/stability.hpp"
#include "engine/cell_eval.hpp"
#include "engine/csv_reader.hpp"
#include "engine/refine.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "service/monitor.hpp"
#include "sim/event_log.hpp"
#include "sim/swarm.hpp"
#include "sim/typecount_sim.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

using namespace p2p;
using namespace p2p::engine;

// ------------------------------------------------------------- helpers

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct CpuTimes {
  double user = 0, sys = 0;
  double total() const { return user + sys; }
};

/// Process-wide CPU (every thread) consumed so far.
CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6,
          static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6};
}

CpuTimes operator-(CpuTimes a, CpuTimes b) {
  return {a.user - b.user, a.sys - b.sys};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The fastest pass. Interference from other tenants of a shared host
/// only ever slows a pass, so the fastest of many passes is the run's
/// steadiest reading of the code's own speed.
double fastest(const std::vector<double>& v) { return quantile(v, 0.0); }

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Inclusive linspace of `n` points.
std::vector<double> linspace(double lo, double hi, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = n == 1 ? lo
                  : lo + (hi - lo) * static_cast<double>(i) /
                             static_cast<double>(n - 1);
  }
  return v;
}

/// Seeded input generator: every workload perturbs its axis ranges by a
/// fraction of a percent, so seeds give different inputs of equal cost.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : engine_(seed) {}
  double jitter(double value, double rel = 0.005) {
    const double u = static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    return value * (1.0 + rel * (2.0 * u - 1.0));
  }

 private:
  std::mt19937_64 engine_;
};

/// The closed-form oracle the checks compare against: Theorem 1 for
/// empty-type arrivals. Written from the formula, not from the library.
Stability oracle_verdict(double lambda, double us, double mu, double gamma) {
  if (gamma <= mu) {
    return us > 0 ? Stability::kPositiveRecurrent : Stability::kTransient;
  }
  const double threshold = us / (1.0 - mu / gamma);
  if (lambda < threshold) return Stability::kPositiveRecurrent;
  if (lambda > threshold) return Stability::kTransient;
  return Stability::kBorderline;
}

/// Closed-form tallies of a theory-only lambda x Us grid: transient
/// cells, and lambda rows whose verdict changes along Us.
struct OracleTally {
  std::size_t transient = 0, bracketed = 0;
};

OracleTally oracle_tally(const std::vector<double>& lambdas,
                         const std::vector<double>& us, double mu,
                         double gamma) {
  OracleTally t;
  for (double lambda : lambdas) {
    bool flips = false;
    for (std::size_t j = 0; j < us.size(); ++j) {
      const Stability v = oracle_verdict(lambda, us[j], mu, gamma);
      t.transient += v == Stability::kTransient;
      flips |= j > 0 && v != oracle_verdict(lambda, us[j - 1], mu, gamma);
    }
    t.bracketed += flips;
  }
  return t;
}

class Checks {
 public:
  void expect(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 10) std::fprintf(stderr, "check failed: %s\n", what);
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-layer metric registry: every name the traced run reports, with
/// its unit. Layers a workload never calls stay 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"engine.sweep.self_s", "s"},
    {"engine.writer.finish_s", "s"},
    {"engine.sweep.cpu_s", "s"},
    {"engine.pool.busy_fraction", "ratio"},
    {"engine.pool.threads", "count"},
    {"engine.sweep.speedup_vs_1t", "x"},
    {"core.classify_ns_per_cell", "ns"},
    {"engine.sweep.overhead_ns_per_cell", "ns"},
    {"engine.report.bytes_per_row", "count"},
    {"engine.csv_reader.scan_ns_per_row", "ns"},
    {"analysis.phase_grid.self_ns_per_row", "ns"},
    {"analysis.frontier.extract_s", "s"},
    {"analysis.agreement.s", "s"},
    {"analysis.heatmap.ppm_s", "s"},
    {"engine.sweep.typecount_half_s", "s"},
    {"engine.sweep.perpeer_half_s", "s"},
    {"sim.typecount.steps_per_s", "1/s"},
    {"sim.perpeer.steps_per_s", "1/s"},
    {"analysis.confidence.bootstrap_us_per_cell", "us"},
    {"engine.refine.self_s", "s"},
    {"engine.refine.evaluated", "count"},
    {"engine.refine.boxes", "count"},
    {"engine.refine.max_depth_reached", "count"},
    {"engine.refine.cpu_s", "s"},
    {"engine.refine.busy_fraction", "ratio"},
    {"engine.refine.classify_share", "ratio"},
    {"sim.event_log.emit_ns_per_event", "ns"},
    {"sim.event_log.serialize_ns_per_event", "ns"},
    {"sim.event_log.parse_ns_per_event", "ns"},
    {"service.monitor.feed_ns_per_event", "ns"},
    {"service.monitor.render_us_per_advisory", "us"},
    {"service.monitor.tick_feed_p50_us", "us"},
    {"service.monitor.tick_feed_p99_us", "us"},
    {"service.monitor.tick_feed_samples", "count"},
    {"service.monitor.advisories", "count"},
    {"service.monitor.flips", "count"},
    {"proc.cpu_user_s", "s"},
    {"proc.cpu_sys_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unaccounted_share", "ratio"},
    {"trace.traced_passes", "count"},
};

using Metrics = std::map<std::string, double>;

/// Average over traced passes of a per-name tracer total.
double per_pass(const std::map<std::string, double>& totals,
                const std::string& name, int passes) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second / passes;
}

// ----------------------------------------------------------- workloads

/// One workload: set-up from a seed (inputs plus one warm-up pass), a
/// timed pass, the output checks of the pass just run (untimed), checks
/// that need an extra untimed pass, and the per-layer metrics of a
/// traced run.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual void setup(std::uint64_t seed, int threads,
                     const std::string& work_dir) = 0;
  /// Work items one pass completes (cells, rows, runs or events).
  virtual double items() const = 0;
  virtual void pass(Tracer& tracer) = 0;
  virtual void check_pass(Checks& checks) = 0;
  virtual void verify(Checks&) {}
  /// Fills the workload's per-layer metrics from the tracer (covering
  /// `passes` traced passes) and its layer probes.
  virtual void layer_metrics(const Tracer& tracer, int passes, Metrics& out) = 0;
};

/// Times classify() over (lambda, Us, mu) points on one thread, the way
/// the sweep engine evaluates a theory-only cell: arrivals materialized
/// into a reused buffer, classified through the view. Returns ns/point.
double classify_ns_per_cell(
    const std::vector<std::array<double, 3>>& lambda_us_mu, double gamma) {
  ScenarioSpec scenario;
  std::vector<ArrivalSpec> scratch;
  std::size_t transient = 0;
  const auto t0 = Clock::now();
  for (const auto& [lambda, us, mu] : lambda_us_mu) {
    CellParams p;
    p.lambda = lambda;
    p.us = us;
    p.mu = mu;
    p.gamma = gamma;
    p.k = 3;
    expand_arrivals(scenario, p, scratch);
    const SwarmParamsView view{p.k, p.us, p.mu, p.gamma, scratch};
    transient += classify(view).verdict == Stability::kTransient;
  }
  const double s = elapsed_s(t0);
  if (transient > lambda_us_mu.size()) std::abort();  // keeps the loop live
  return s * 1e9 / static_cast<double>(lambda_us_mu.size());
}

// --- theory_region: dense theory-only sweep into a file-backed writer.

class TheoryRegion final : public Workload {
 public:
  static constexpr std::size_t kLambdaPoints = 2048;
  static constexpr std::size_t kUsPoints = 2048;
  static constexpr double kMu = 1.0, kGamma = 1.25;

  void setup(std::uint64_t seed, int threads, const std::string&) override {
    InputRng rng(seed);
    lambda_ = linspace(rng.jitter(0.5), rng.jitter(3.0), kLambdaPoints);
    us_ = linspace(rng.jitter(0.2), rng.jitter(1.7), kUsPoints);
    grid_ = SweepGrid{};
    grid_.set_axis({"lambda", lambda_});
    grid_.set_axis({"us", us_});
    options_ = SweepOptions{};
    options_.theory_only = true;
    options_.threads = threads;
    oracle_.reset();
    Tracer off(false);
    pass(off);
  }

  double items() const override {
    return static_cast<double>(kLambdaPoints * kUsPoints);
  }

  void pass(Tracer& tracer) override { summary_ = sweep(tracer, options_); }

  void check_pass(Checks& checks) override {
    // Computed on first use so that set-up times the library alone.
    if (!oracle_) oracle_ = oracle_tally(lambda_, us_, kMu, kGamma);
    checks.expect(summary_.cells == kLambdaPoints * kUsPoints,
                  "theory_region: every cell emitted");
    checks.expect(summary_.transient == oracle_->transient,
                  "theory_region: transient tally matches closed form");
    checks.expect(summary_.stable + summary_.transient +
                          summary_.borderline ==
                      summary_.cells,
                  "theory_region: verdict tallies sum to cells");
  }

  void layer_metrics(const Tracer& tracer, int passes, Metrics& out) override {
    const auto self = tracer.self_seconds();
    const auto busy = tracer.busy_seconds();
    const double cells = items();
    const double sweep_cpu = sweep_cpu_s_ / passes;
    const double sweep_wall = per_pass(busy, "engine.sweep", passes);
    out["engine.sweep.self_s"] = per_pass(self, "engine.sweep", passes);
    out["engine.writer.finish_s"] =
        per_pass(self, "engine.writer.finish", passes);
    out["engine.sweep.cpu_s"] = sweep_cpu;
    out["engine.pool.threads"] = options_.threads;
    out["engine.pool.busy_fraction"] =
        sweep_cpu / (sweep_wall * options_.threads);

    // Probe: the same pass on one thread. Threaded and one-thread passes
    // alternate, so that both fastest passes see the same host.
    SweepOptions one = options_;
    one.threads = 1;
    Tracer off(false);
    std::vector<double> threaded_s, one_thread_s;
    for (int i = 0; i < 3; ++i) {
      for (auto* o : {&options_, &one}) {
        const auto t0 = Clock::now();
        sweep(off, *o);
        (o == &one ? one_thread_s : threaded_s).push_back(elapsed_s(t0));
      }
    }
    out["engine.sweep.speedup_vs_1t"] =
        fastest(one_thread_s) / fastest(threaded_s);

    // Probe: classify alone over the same cells, one thread.
    std::vector<std::array<double, 3>> points;
    points.reserve(kLambdaPoints * kUsPoints);
    for (double lambda : lambda_) {
      for (double us : us_) points.push_back({lambda, us, kMu});
    }
    const double classify_ns = classify_ns_per_cell(points, kGamma);
    out["core.classify_ns_per_cell"] = classify_ns;
    out["engine.sweep.overhead_ns_per_cell"] =
        sweep_cpu * 1e9 / cells - classify_ns;
  }

 private:
  SweepSummary sweep(Tracer& tracer, const SweepOptions& options) {
    ScopedSpan pass(tracer, "pass");
    ReportWriter writer("/dev/null", ReportFormat::kCsv,
                        sweep_columns(options));
    SweepSummary summary;
    {
      ScopedSpan span(tracer, "engine.sweep");
      const CpuTimes c0 = cpu_now();
      summary = run_sweep_stream(grid_, options, writer);
      if (tracer.enabled()) sweep_cpu_s_ += (cpu_now() - c0).total();
    }
    ScopedSpan span(tracer, "engine.writer.finish");
    writer.finish();
    return summary;
  }

  std::vector<double> lambda_, us_;
  SweepGrid grid_;
  SweepOptions options_;
  std::optional<OracleTally> oracle_;
  SweepSummary summary_;
  double sweep_cpu_s_ = 0;
};

// --- theory_ingest: the read side over a corpus the sweep wrote.

class TheoryIngest final : public Workload {
 public:
  static constexpr std::size_t kLambdaPoints = 256;  // rows (slow axis)
  static constexpr std::size_t kUsPoints = 640;      // x (fast axis)
  static constexpr double kMu = 1.0, kGamma = 1.25, kTol = 1e-3;

  void setup(std::uint64_t seed, int threads,
             const std::string& work_dir) override {
    threads_ = threads;
    InputRng rng(seed);
    lambda_ = linspace(rng.jitter(0.5), rng.jitter(3.0), kLambdaPoints);
    us_ = linspace(rng.jitter(0.2), rng.jitter(1.7), kUsPoints);
    SweepGrid grid;
    grid.set_axis({"lambda", lambda_});
    grid.set_axis({"us", us_});
    SweepOptions options;
    options.theory_only = true;
    options.threads = threads;
    corpus_ = work_dir + "/corpus.csv";
    {
      ReportWriter writer(corpus_, ReportFormat::kCsv, sweep_columns(options));
      run_sweep_stream(grid, options, writer);
      writer.finish();
    }
    std::ifstream in(corpus_, std::ios::binary | std::ios::ate);
    corpus_bytes_ = static_cast<double>(in.tellg());
    oracle_.reset();
    Tracer off(false);
    pass(off);
  }

  double items() const override {
    return static_cast<double>(kLambdaPoints * kUsPoints);
  }

  void pass(Tracer& tracer) override {
    using namespace p2p::analysis;
    ScopedSpan pass(tracer, "pass");
    {
      ScopedSpan span(tracer, "analysis.phase_grid");
      CsvReader reader(corpus_);
      grid_ = build_phase_grid(reader);
    }
    {
      ScopedSpan span(tracer, "analysis.frontier");
      frontier_ = extract_frontier(grid_, kTol, threads_);
    }
    {
      ScopedSpan span(tracer, "analysis.agreement");
      agreement_ = verdict_agreement(grid_);
    }
    {
      ScopedSpan span(tracer, "analysis.heatmap.ppm");
      RenderOptions render;
      render.cell_px = 1;
      write_ppm(grid_, frontier_, render, "/dev/null");
    }
    ScopedSpan span(tracer, "analysis.summary");
    transient_ = 0;
    for (const auto& cell : grid_.cells) {
      transient_ += cell.verdict == Stability::kTransient;
    }
    bracketed_ = 0;
    for (const auto& pt : frontier_) bracketed_ += pt.bracketed;
  }

  void check_pass(Checks& checks) override {
    // Computed on first use so that set-up times the library alone.
    if (!oracle_) oracle_ = oracle_tally(lambda_, us_, kMu, kGamma);
    checks.expect(grid_.cells.size() == kLambdaPoints * kUsPoints,
                  "theory_ingest: every corpus row ingested");
    checks.expect(transient_ == oracle_->transient,
                  "theory_ingest: transient cells match closed form");
    checks.expect(bracketed_ == oracle_->bracketed,
                  "theory_ingest: bracketed rows match closed form");
    // A bracketed row flips at Us = lambda (1 - mu / gamma).
    for (const auto& pt : frontier_) {
      if (!pt.bracketed) continue;
      const double lambda = grid_.y_values[pt.row];
      checks.expect(
          std::abs(pt.value - lambda * (1.0 - kMu / kGamma)) <= kTol,
          "theory_ingest: re-bisected frontier within tol of closed form");
    }
  }

  void layer_metrics(const Tracer& tracer, int passes, Metrics& out) override {
    const auto self = tracer.self_seconds();
    const double rows = items();
    out["engine.report.bytes_per_row"] = corpus_bytes_ / rows;
    out["analysis.frontier.extract_s"] =
        per_pass(self, "analysis.frontier", passes);
    out["analysis.agreement.s"] = per_pass(self, "analysis.agreement", passes);
    out["analysis.heatmap.ppm_s"] =
        per_pass(self, "analysis.heatmap.ppm", passes);
    out["engine.pool.threads"] = threads_;

    // Probe: drain the reader alone, no typed state built.
    const auto t0 = Clock::now();
    CsvReader reader(corpus_);
    std::vector<std::string> cells;
    std::size_t n = 0;
    while (reader.next_row(&cells)) ++n;
    const double scan_ns = elapsed_s(t0) * 1e9 / static_cast<double>(n);
    out["engine.csv_reader.scan_ns_per_row"] = scan_ns;
    out["analysis.phase_grid.self_ns_per_row"] =
        per_pass(self, "analysis.phase_grid", passes) * 1e9 / rows - scan_ns;
  }

 private:
  int threads_ = 1;
  std::vector<double> lambda_, us_;
  std::string corpus_;
  double corpus_bytes_ = 0;
  std::optional<OracleTally> oracle_;
  p2p::analysis::PhaseGrid grid_;
  std::vector<p2p::analysis::PhaseFrontierPoint> frontier_;
  p2p::analysis::VerdictAgreement agreement_;
  std::size_t transient_ = 0, bracketed_ = 0;
};

// --- sim_region: replica simulation on both backends plus aggregation.

class SimRegion final : public Workload {
 public:
  static constexpr std::size_t kLambdaPoints = 16, kUsPoints = 16;
  static constexpr int kReplicas = 32;
  static constexpr double kHorizon = 100, kWarmup = 25;

  void setup(std::uint64_t seed, int threads, const std::string&) override {
    InputRng rng(seed);
    lambda_ = linspace(rng.jitter(0.5), rng.jitter(3.0), kLambdaPoints);
    us_ = linspace(rng.jitter(0.2), rng.jitter(1.7), kUsPoints);
    options_ = SweepOptions{};
    options_.threads = threads;
    options_.replicas = kReplicas;
    options_.horizon = kHorizon;
    options_.warmup = kWarmup;
    options_.base_seed = seed;
    grid_ = make_grid({0.0, 0.5});
    first_digest_ = 0;
    Tracer off(false);
    pass(off);
    first_digest_ = fnv1a(report_);
  }

  double items() const override {
    return static_cast<double>(grid_.num_cells() * kReplicas);
  }

  void pass(Tracer& tracer) override {
    ScopedSpan pass(tracer, "pass");
    report_.clear();
    ReportWriter writer(&report_, ReportFormat::kCsv, sweep_columns(options_));
    {
      ScopedSpan span(tracer, "engine.sweep");
      const CpuTimes c0 = cpu_now();
      run_sweep_stream(grid_, options_, writer);
      if (tracer.enabled()) sweep_cpu_s_ += (cpu_now() - c0).total();
    }
    ScopedSpan span(tracer, "engine.writer.finish");
    writer.finish();
  }

  void check_pass(Checks& checks) override {
    checks.expect(fnv1a(report_) == first_digest_,
                  "sim_region: report digest identical across passes");
    CsvReader reader = CsvReader::from_text(report_);
    const auto& cols = reader.columns();
    const std::size_t replicas_col = static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), "replicas") - cols.begin());
    std::vector<std::string> cells;
    std::size_t rows = 0;
    bool all_full = replicas_col < cols.size();
    while (reader.next_row(&cells)) {
      ++rows;
      if (all_full && cells[replicas_col] != std::to_string(kReplicas)) {
        all_full = false;
      }
    }
    checks.expect(rows == grid_.num_cells(), "sim_region: one row per cell");
    checks.expect(all_full, "sim_region: every row has R replicas");
  }

  void layer_metrics(const Tracer& tracer, int passes, Metrics& out) override {
    const auto self = tracer.self_seconds();
    const auto busy = tracer.busy_seconds();
    const double sweep_cpu = sweep_cpu_s_ / passes;
    out["engine.sweep.self_s"] = per_pass(self, "engine.sweep", passes);
    out["engine.writer.finish_s"] =
        per_pass(self, "engine.writer.finish", passes);
    out["engine.sweep.cpu_s"] = sweep_cpu;
    out["engine.pool.threads"] = options_.threads;
    out["engine.pool.busy_fraction"] =
        sweep_cpu /
        (per_pass(busy, "engine.sweep", passes) * options_.threads);

    // Probe: each backend's half of the grid alone.
    const auto half_s = [&](double hetero) {
      const SweepGrid half = make_grid({hetero});
      std::string sink;
      ReportWriter writer(&sink, ReportFormat::kCsv, sweep_columns(options_));
      const auto t0 = Clock::now();
      run_sweep_stream(half, options_, writer);
      writer.finish();
      return elapsed_s(t0);
    };
    out["engine.sweep.typecount_half_s"] = half_s(0.0);
    out["engine.sweep.perpeer_half_s"] = half_s(0.5);

    // Probe: raw backend step rates on the grid's most stable and most
    // transient cell, one thread.
    const auto steps_per_s = [&](double hetero) {
      double steps = 0, seconds = 0;
      const double corners[2][2] = {{lambda_.front(), us_.back()},
                                    {lambda_.back(), us_.front()}};
      for (const auto& [lambda, us] : corners) {
        CellParams p;
        p.lambda = lambda;
        p.us = us;
        p.mu = 1.0;
        p.gamma = 1.25;
        p.k = 3;
        p.hetero = hetero;
        ExpandedCell cell = expand(ScenarioSpec{}, p);
        std::unique_ptr<SwarmBackend> sim;
        if (hetero == 0) {
          sim = std::make_unique<TypeCountSim>(cell.params,
                                               TypeCountSimOptions{0, 99});
        } else {
          cell.sim.rng_seed = 99;
          sim = std::make_unique<SwarmSim>(cell.params, cell.sim);
        }
        const auto t0 = Clock::now();
        sim->run_until(kHorizon);
        seconds += elapsed_s(t0);
        const SwarmCounters& c = sim->counters();
        steps += static_cast<double>(c.arrivals + c.departures + c.downloads +
                                     c.silent_contacts);
      }
      return steps / seconds;
    };
    out["sim.typecount.steps_per_s"] = steps_per_s(0.0);
    out["sim.perpeer.steps_per_s"] = steps_per_s(0.5);

    // Probe: the sweep's per-cell replica aggregation (mean, SEM and
    // bootstrap CI) over R synthetic replica samples.
    constexpr int kCells = 2000;
    std::vector<ReplicaSample> samples(kReplicas);
    Rng data(7);
    double sink = 0;
    const auto t0 = Clock::now();
    for (int c = 0; c < kCells; ++c) {
      for (auto& s : samples) {
        s.final_peers = 10 * data.uniform();
        s.mean_peers = 10 * data.uniform();
        s.mean_sojourn = 1 + data.uniform();
      }
      Rng rng(static_cast<std::uint64_t>(c) + 1);
      sink += aggregate_samples(samples, options_, rng).mean_peers_hi;
    }
    const double s = elapsed_s(t0);
    if (!(sink > 0)) std::abort();  // keeps the loop live
    out["analysis.confidence.bootstrap_us_per_cell"] = s * 1e6 / kCells;
  }

 private:
  SweepGrid make_grid(std::vector<double> hetero) const {
    SweepGrid grid;
    grid.set_axis({"lambda", lambda_});
    grid.set_axis({"us", us_});
    grid.set_axis({"hetero", std::move(hetero)});
    return grid;
  }

  std::vector<double> lambda_, us_;
  SweepGrid grid_;
  SweepOptions options_;
  std::string report_;
  std::uint64_t first_digest_ = 0;
  double sweep_cpu_s_ = 0;
};

// --- adaptive_volume: theory-only refinement of a 3-D lattice.

class AdaptiveVolume final : public Workload {
 public:
  static constexpr std::size_t kCoarse = 5;
  static constexpr int kDepth = 6;
  static constexpr double kGamma = 1.25;

  void setup(std::uint64_t seed, int threads,
             const std::string& work_dir) override {
    InputRng rng(seed);
    lambda_ = linspace(rng.jitter(0.5), rng.jitter(3.0), kCoarse);
    us_ = linspace(rng.jitter(0.2), rng.jitter(1.7), kCoarse);
    mu_ = linspace(rng.jitter(0.5), rng.jitter(2.0), kCoarse);
    grid_ = SweepGrid{};
    grid_.set_axis({"lambda", lambda_});
    grid_.set_axis({"us", us_});
    grid_.set_axis({"mu", mu_});
    options_ = SweepOptions{};
    options_.theory_only = true;
    options_.threads = threads;
    adaptive_ = AdaptiveOptions{};
    adaptive_.max_depth = kDepth;
    leaves_path_ = work_dir + "/adaptive.csv";
    Tracer off(false);
    pass(off);
    first_ = summary_;
  }

  double items() const override {
    return static_cast<double>(first_.dense_equivalent);
  }

  void pass(Tracer& tracer) override { summary_ = refine(tracer, "/dev/null"); }

  void check_pass(Checks& checks) override {
    checks.expect(summary_.evaluated == first_.evaluated &&
                      summary_.boxes == first_.boxes,
                  "adaptive_volume: evaluations identical across passes");
    checks.expect(summary_.stable + summary_.transient +
                          summary_.borderline ==
                      summary_.boxes,
                  "adaptive_volume: leaf tallies sum to boxes");
  }

  /// Every leaf's origin verdict against the closed form, altruistic
  /// branch (mu >= gamma: always stable) included.
  void verify(Checks& checks) override {
    Tracer off(false);
    refine(off, leaves_path_);
    CsvReader reader(leaves_path_);
    const auto& cols = reader.columns();
    const auto col = [&](const char* name) {
      return static_cast<std::size_t>(
          std::find(cols.begin(), cols.end(), name) - cols.begin());
    };
    const std::size_t c_lambda = col("lambda"), c_us = col("us"),
                      c_mu = col("mu"), c_gamma = col("gamma"),
                      c_verdict = col("verdict");
    checks.expect(c_verdict < cols.size(), "adaptive_volume: verdict column");
    if (c_verdict >= cols.size()) return;
    std::vector<std::string> cells;
    std::size_t rows = 0, altruistic = 0;
    while (reader.next_row(&cells)) {
      ++rows;
      const double lambda = std::stod(cells[c_lambda]);
      const double us = std::stod(cells[c_us]);
      const double mu = std::stod(cells[c_mu]);
      const double gamma = std::stod(cells[c_gamma]);
      altruistic += gamma <= mu;
      checks.expect(
          cells[c_verdict] == to_string(oracle_verdict(lambda, us, mu, gamma)),
          "adaptive_volume: leaf origin verdict matches closed form");
    }
    checks.expect(rows == first_.boxes, "adaptive_volume: one row per leaf");
    checks.expect(altruistic > 0,
                  "adaptive_volume: lattice covers the altruistic branch");
    std::remove(leaves_path_.c_str());
  }

  void layer_metrics(const Tracer& tracer, int passes, Metrics& out) override {
    const auto self = tracer.self_seconds();
    const auto busy = tracer.busy_seconds();
    const double wall = per_pass(busy, "engine.refine", passes);
    const double cpu = refine_cpu_s_ / passes;
    out["engine.refine.self_s"] = per_pass(self, "engine.refine", passes);
    out["engine.writer.finish_s"] =
        per_pass(self, "engine.writer.finish", passes);
    out["engine.refine.evaluated"] = static_cast<double>(first_.evaluated);
    out["engine.refine.boxes"] = static_cast<double>(first_.boxes);
    out["engine.refine.max_depth_reached"] = first_.max_depth_reached;
    out["engine.refine.cpu_s"] = cpu;
    out["engine.pool.threads"] = options_.threads;
    out["engine.refine.busy_fraction"] = cpu / (wall * options_.threads);

    // Probe: classify over a dense 100^3 sub-lattice of the same volume.
    std::vector<std::array<double, 3>> points;
    const auto lam = linspace(lambda_.front(), lambda_.back(), 100);
    const auto us = linspace(us_.front(), us_.back(), 100);
    const auto mu = linspace(mu_.front(), mu_.back(), 100);
    points.reserve(100 * 100 * 100);
    for (double l : lam) {
      for (double u : us) {
        for (double m : mu) points.push_back({l, u, m});
      }
    }
    const double classify_ns = classify_ns_per_cell(points, kGamma);
    out["core.classify_ns_per_cell"] = classify_ns;
    out["engine.refine.classify_share"] =
        classify_ns * 1e-9 * static_cast<double>(first_.evaluated) / wall;
  }

 private:
  AdaptiveSummary refine(Tracer& tracer, const std::string& path) {
    ScopedSpan pass(tracer, "pass");
    ReportWriter writer(path, ReportFormat::kCsv,
                        adaptive_columns(grid_, options_));
    AdaptiveSummary summary;
    {
      ScopedSpan span(tracer, "engine.refine");
      const CpuTimes c0 = cpu_now();
      summary = run_adaptive_stream(grid_, options_, adaptive_, writer);
      if (tracer.enabled()) refine_cpu_s_ += (cpu_now() - c0).total();
    }
    ScopedSpan span(tracer, "engine.writer.finish");
    writer.finish();
    return summary;
  }

  std::vector<double> lambda_, us_, mu_;
  SweepGrid grid_;
  SweepOptions options_;
  AdaptiveOptions adaptive_;
  std::string leaves_path_;
  AdaptiveSummary first_, summary_;
  double refine_cpu_s_ = 0;
};

// --- event logs: a K = 8 frontier-crossing schedule.

constexpr int kLogPieces = 8;
constexpr double kLogUs = 1, kLogMu = 1, kLogGamma = 2;  // frontier: lambda 2

struct Schedule {
  std::vector<LogSegment> segments;
  double expected_arrivals = 0;
};

Schedule make_schedule(std::uint64_t seed) {
  InputRng rng(seed);
  Schedule s;
  for (double lambda : {1.0, 4.0, 1.0}) {
    const double duration = rng.jitter(4000, 0.01);
    s.segments.push_back(
        {SwarmParams(kLogPieces, kLogUs, kLogMu, kLogGamma,
                     {{PieceSet{}, lambda}}),
         duration});
    s.expected_arrivals += lambda * duration;
  }
  return s;
}

/// Emits the schedule's log as CSV into `out`; per-event serialization
/// time is folded into a tally when tracing.
std::size_t emit_log(Tracer& tracer, const Schedule& schedule,
                     std::uint64_t seed, std::string& out) {
  out = event_log_csv_header();
  EventLogOptions options;
  options.seed = seed;
  std::size_t events = 0;
  ScopedSpan span(tracer, "sim.event_log.generate");
  const int tally = tracer.tally("sim.event_log.serialize");
  generate_event_log(schedule.segments, options, [&](const SwarmEvent& e) {
    if (tally < 0) {
      append_event_csv(out, e);
    } else {
      const auto t0 = Clock::now();
      append_event_csv(out, e);
      tracer.add(tally, t0, Clock::now());
    }
    ++events;
  });
  return events;
}

// --- trace_emit: generate and serialize the event log.

class TraceEmit final : public Workload {
 public:
  void setup(std::uint64_t seed, int, const std::string&) override {
    seed_ = seed;
    schedule_ = make_schedule(seed);
    Tracer off(false);
    pass(off);
    first_events_ = events_;
    first_digest_ = fnv1a(log_);
  }

  double items() const override { return static_cast<double>(first_events_); }

  void pass(Tracer& tracer) override {
    ScopedSpan pass(tracer, "pass");
    events_ = emit_log(tracer, schedule_, seed_, log_);
  }

  void check_pass(Checks& checks) override {
    checks.expect(events_ == first_events_ && fnv1a(log_) == first_digest_,
                  "trace_emit: log identical across passes");
  }

  /// Replays the serialized log with an independent parser: no type
  /// count may go negative, no transfer may deliver a held piece, and
  /// the arrival count must sit within 6 sigma of the Poisson mean.
  void verify(Checks& checks) override {
    std::vector<std::int64_t> count(std::size_t{1} << kLogPieces, 0);
    std::size_t arrivals = 0, pos = log_.find('\n') + 1;
    bool consistent = true;
    while (pos < log_.size()) {
      const std::size_t end = log_.find('\n', pos);
      const std::string line = log_.substr(pos, end - pos);
      pos = end + 1;
      const std::size_t c1 = line.find(','), c2 = line.find(',', c1 + 1),
                        c3 = line.find(',', c2 + 1);
      const std::string kind = line.substr(c1 + 1, c2 - c1 - 1);
      const std::size_t type = std::stoul(line.substr(c2 + 1, c3 - c2 - 1));
      if (kind == "arrive") {
        ++arrivals;
        ++count[type];
      } else if (kind == "depart") {
        consistent &= --count[type] >= 0;
      } else {
        const int piece = std::stoi(line.substr(c3 + 1));
        consistent &= (type >> piece & 1) == 0;
        consistent &= --count[type] >= 0;
        ++count[type | std::size_t{1} << piece];
      }
    }
    checks.expect(consistent, "trace_emit: log replays consistently");
    const double mean = schedule_.expected_arrivals;
    checks.expect(std::abs(static_cast<double>(arrivals) - mean) <=
                      6 * std::sqrt(mean),
                  "trace_emit: arrivals match the schedule's rates");
  }

  void layer_metrics(const Tracer& tracer, int passes, Metrics& out) override {
    const auto self = tracer.self_seconds();
    const double events = items();
    out["sim.event_log.emit_ns_per_event"] =
        per_pass(self, "sim.event_log.generate", passes) * 1e9 / events;
    out["sim.event_log.serialize_ns_per_event"] =
        per_pass(self, "sim.event_log.serialize", passes) * 1e9 / events;
  }

 private:
  std::uint64_t seed_ = 1;
  Schedule schedule_;
  std::string log_;
  std::size_t events_ = 0, first_events_ = 0;
  std::uint64_t first_digest_ = 0;
};

// --- monitor_replay: parse and feed the log through the monitor.

class MonitorReplay final : public Workload {
 public:
  void setup(std::uint64_t seed, int, const std::string&) override {
    Tracer off(false);
    const std::size_t events = emit_log(off, make_schedule(seed), seed, log_);
    body_ = log_.find('\n') + 1;  // past the CSV header
    lines_ = events;
    pass(off);
    first_advisories_ = advisories_;
  }

  double items() const override { return static_cast<double>(lines_); }

  void pass(Tracer& tracer) override { replay(tracer, nullptr); }

  void check_pass(Checks& checks) override {
    checks.expect(events_processed_ == lines_,
                  "monitor_replay: events_processed equals lines fed");
    checks.expect(advisories_ == first_advisories_,
                  "monitor_replay: advisory count identical across passes");
  }

  /// Replays once more and checks every advisory line with the library's
  /// strict JSON grammar, which has no NaN or Infinity literals. A
  /// malformed line aborts the run; a well-formed one must carry the
  /// advisory's keys.
  void verify(Checks& checks) override {
    Tracer off(false);
    replay(off, &checks);
  }

  void layer_metrics(const Tracer& tracer, int passes, Metrics& out) override {
    const auto self = tracer.self_seconds();
    const auto busy = tracer.busy_seconds();
    const double events = items();
    const double advisories = static_cast<double>(first_advisories_);
    out["sim.event_log.parse_ns_per_event"] =
        per_pass(self, "sim.event_log.parse", passes) * 1e9 / events;
    out["service.monitor.feed_ns_per_event"] =
        per_pass(self, "service.monitor.feed", passes) * 1e9 / events;
    out["service.monitor.render_us_per_advisory"] =
        per_pass(busy, "service.monitor.render", passes) * 1e6 / advisories;
    out["service.monitor.tick_feed_p50_us"] = quantile(tick_feed_us_, 0.5);
    out["service.monitor.tick_feed_p99_us"] = quantile(tick_feed_us_, 0.99);
    out["service.monitor.tick_feed_samples"] =
        static_cast<double>(tick_feed_us_.size());
    out["service.monitor.advisories"] = advisories;
    out["service.monitor.flips"] = static_cast<double>(flips_);
  }

 private:
  void replay(Tracer& tracer, Checks* checks) {
    ScopedSpan pass(tracer, "pass");
    service::MonitorConfig config;
    config.num_pieces = kLogPieces;
    config.window = 40;
    config.advice_every = 5;
    service::StabilityMonitor monitor(config);
    const int parse_tally = tracer.tally("sim.event_log.parse");
    const int feed_tally = tracer.tally("service.monitor.feed");
    // The sink runs inside feed(), so its tally nests under feed's.
    const int render_tally =
        tracer.tally("service.monitor.render", feed_tally);
    advisories_ = 0;
    std::size_t bytes = 0;
    const service::AdvisorySink sink = [&](const service::Advisory& a) {
      const auto t0 = tracer.enabled() ? Clock::now() : Clock::time_point{};
      const std::string line = service::advisory_json_line(a);
      bytes += line.size();
      ++advisories_;
      if (render_tally >= 0) tracer.add(render_tally, t0, Clock::now());
      if (checks != nullptr) {
        validate_json(line, "advisory line");
        bool keyed = true;
        for (const char* key : {"\"t\": ", "\"status\": ", "\"raw\": ",
                                "\"margin\": ", "\"flips\": ", "\"events\": "}) {
          keyed &= line.find(key) != std::string::npos;
        }
        checks->expect(keyed, "monitor_replay: advisory carries its keys");
      }
    };
    // The input stays one flat string; each line is copied into a
    // reused buffer because the library takes lines as std::string.
    std::string line;
    std::size_t pos = body_;
    for (std::size_t i = 0; i < lines_; ++i) {
      const std::size_t end = log_.find('\n', pos);
      line.assign(log_, pos, end - pos);
      pos = end + 1;
      if (parse_tally < 0) {
        const SwarmEvent event = parse_event_line(line, i + 2, kLogPieces);
        monitor.feed(event, line, i + 2, sink);
        continue;
      }
      const auto t0 = Clock::now();
      const SwarmEvent event = parse_event_line(line, i + 2, kLogPieces);
      const auto t1 = Clock::now();
      const std::size_t before = advisories_;
      monitor.feed(event, line, i + 2, sink);
      const auto t2 = Clock::now();
      tracer.add(parse_tally, t0, t1);
      tracer.add(feed_tally, t1, t2);
      if (advisories_ != before) {
        tick_feed_us_.push_back(
            std::chrono::duration<double, std::micro>(t2 - t1).count());
      }
    }
    monitor.finish(sink);
    if (bytes == 0) std::abort();  // keeps the rendering live
    events_processed_ = monitor.events_processed();
    flips_ = monitor.flips();
  }

  std::string log_;
  std::size_t body_ = 0, lines_ = 0;
  std::size_t advisories_ = 0, first_advisories_ = 0;
  std::size_t events_processed_ = 0, flips_ = 0;
  std::vector<double> tick_feed_us_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "theory_region") return std::make_unique<TheoryRegion>();
  if (name == "theory_ingest") return std::make_unique<TheoryIngest>();
  if (name == "sim_region") return std::make_unique<SimRegion>();
  if (name == "adaptive_volume") return std::make_unique<AdaptiveVolume>();
  if (name == "trace_emit") return std::make_unique<TraceEmit>();
  if (name == "monitor_replay") return std::make_unique<MonitorReplay>();
  return nullptr;
}

// -------------------------------------------------------------- driver

struct PassStats {
  std::vector<double> wall, user, sys;
  std::vector<double> cpu() const {
    std::vector<double> total(wall.size());
    for (std::size_t i = 0; i < total.size(); ++i) total[i] = user[i] + sys[i];
    return total;
  }
};

/// An untraced run sets up at least kSetups times and for at least
/// kSetupSeconds, so that a short set-up gets as many samples as it
/// needs; setup_s is the fastest, for the same reason as the fastest
/// pass.
constexpr int kSetups = 5;
constexpr double kSetupSeconds = 3;

/// Runs timed passes until `seconds` have elapsed (at least `min_passes`).
PassStats timed_passes(Workload& w, Tracer& tracer, Checks& checks,
                       double seconds, int min_passes) {
  PassStats stats;
  const auto start = Clock::now();
  while (static_cast<int>(stats.wall.size()) < min_passes ||
         elapsed_s(start) < seconds) {
    tracer.begin_run();
    const CpuTimes c0 = cpu_now();
    const auto t0 = Clock::now();
    w.pass(tracer);
    stats.wall.push_back(elapsed_s(t0));
    const CpuTimes c = cpu_now() - c0;
    stats.user.push_back(c.user);
    stats.sys.push_back(c.sys);
    w.check_pass(checks);
  }
  return stats;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (!args.count(key)) return usage();
  }
  const std::string name = args["workload"];
  const std::uint64_t seed = std::stoull(args["seed"]);
  const double seconds = std::stod(args["seconds"]);
  const bool trace = args["trace"] == "1";
  const std::string work_dir = args["work-dir"];
  std::unique_ptr<Workload> w = make_workload(name);
  if (!w || seconds <= 0) return usage();
  const int threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));

  Checks checks;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  const auto report = [&](const std::string& key, double value,
                          const char* unit) {
    metrics.push_back({key, {value, unit}});
  };

  if (!trace) {
    std::vector<double> setup_s;
    const auto start = Clock::now();
    while (static_cast<int>(setup_s.size()) < kSetups ||
           elapsed_s(start) < kSetupSeconds) {
      const auto t0 = Clock::now();
      w->setup(seed, threads, work_dir);
      setup_s.push_back(elapsed_s(t0));
    }
    Tracer off(false);
    const PassStats stats = timed_passes(*w, off, checks, seconds, 3);
    w->verify(checks);
    const std::vector<double> cpu = stats.cpu();
    std::fprintf(stderr,
                 "%s: %zu passes of %g items on %d threads; wall min %.4f "
                 "p25 %.4f p50 %.4f p75 %.4f s; cpu min %.4f p50 %.4f s; "
                 "set-ups",
                 name.c_str(), stats.wall.size(), w->items(), threads,
                 fastest(stats.wall), quantile(stats.wall, 0.25),
                 median(stats.wall), quantile(stats.wall, 0.75), fastest(cpu),
                 median(cpu));
    for (double s : setup_s) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, " s\n");
    report("items_per_s", w->items() / fastest(stats.wall), "1/s");
    report("peak_rss_mb", peak_rss_mb(), "MB");
    report("setup_s", fastest(setup_s), "s");
  } else {
    w->setup(seed, threads, work_dir);
    Tracer off(false);
    const PassStats plain = timed_passes(*w, off, checks, seconds / 2, 2);
    Tracer tracer(true);
    const PassStats traced = timed_passes(*w, tracer, checks, seconds / 2, 2);
    const int passes = static_cast<int>(traced.wall.size());
    w->verify(checks);

    Metrics layer;
    for (const LayerMetric& m : kLayerMetrics) layer[m.name] = 0;
    w->layer_metrics(tracer, passes, layer);
    layer["proc.cpu_user_s"] = median(plain.user);
    layer["proc.cpu_sys_s"] = median(plain.sys);
    layer["trace.overhead_ratio"] = fastest(traced.wall) / fastest(plain.wall);
    const auto self = tracer.self_seconds();
    const auto busy = tracer.busy_seconds();
    layer["trace.unaccounted_share"] = self.at("pass") / busy.at("pass");
    layer["trace.traced_passes"] = passes;

    const std::string trace_path =
        (std::filesystem::path(work_dir).parent_path() /
         ("trace-" + name + "-seed" + args["seed"] + ".json"))
            .string();
    std::ofstream(trace_path, std::ios::binary) << tracer.to_json();
    std::fprintf(stderr, "%s: spans written to %s\n", name.c_str(),
                 trace_path.c_str());
    // Bases of the ratios and per-pass figures below.
    std::fprintf(stderr,
                 "%s: per traced pass (%d traced, %zu untraced passes; "
                 "%d threads; fastest untraced pass %.4f s, traced %.4f s)\n",
                 name.c_str(), passes, plain.wall.size(), threads,
                 fastest(plain.wall), fastest(traced.wall));
    for (const LayerMetric& m : kLayerMetrics) {
      if (layer.at(m.name) != 0) {
        std::fprintf(stderr, "  %-44s %14.6g %s\n", m.name, layer.at(m.name),
                     m.unit);
      }
      report(m.name, layer.at(m.name), m.unit);
    }
  }

  std::string out = "{\"attempted\": " + std::to_string(checks.attempted()) +
                    ", \"failed\": " + std::to_string(checks.failed()) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           number(metrics[i].second.first) + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
