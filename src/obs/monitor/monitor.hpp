// Online health monitor + flight recorder (DESIGN.md §13): the live twin of
// src/obs/analysis. While a run executes, instrumented call sites push
// per-rank step timings, retransmit counts, and serve replies into an
// installed Monitor, which aggregates them into fixed-cadence virtual-time
// windows, evaluates anomaly detectors the moment each window closes, and
// keeps a bounded per-rank ring of recent trace events — the "black box"
// dumped as a postmortem bundle when a rank fails, a detector fires, or the
// caller asks.
//
// Overhead contract (pinned by obs_overhead_test): with no Monitor
// installed, every hook_*() site is ONE relaxed atomic load and a branch —
// no allocation, no locking, no clock reads. The flight recorder mirrors
// only events the tracer already records, so runs with tracing disabled pay
// nothing extra there either.
//
// Determinism contract (pinned by monitor_test + determinism_test): windows
// close in index order, when every live declared rank's virtual-time
// watermark has passed the window end. Detector inputs are push-fed from
// per-rank monotone event streams, so the closing computation — and
// therefore the alert sequence and the serialized postmortem bundle — is
// byte-identical across same-seed runs, regardless of thread interleaving.
// Registry-snapshot sampling (hook_tick) is only wired from single-threaded
// drivers (serve::Server, tools); threaded fabric runs capture registry
// deltas once, at finalize, after the rank threads have joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace ds::obs::monitor {

// ---------------------------------------------------------------------------
// Rolling time series: fixed-capacity ring buffer of (vtime, value) samples.
// ---------------------------------------------------------------------------

struct Sample {
  double t = 0.0;  // virtual seconds
  double v = 0.0;
};

/// Bounded ring of samples; push() evicts the oldest once full. All reads
/// index the retained window (0 = oldest retained sample).
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity);

  void push(double t, double v);
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Samples ever pushed (size() + evicted).
  std::uint64_t total_pushed() const { return total_; }
  Sample at(std::size_t i) const;
  Sample back() const;

  double mean() const;
  double min() const;
  double max() const;
  /// Least-squares slope dv/dt over the retained samples; 0 when fewer than
  /// two samples or the time span is degenerate.
  double slope() const;

 private:
  std::vector<Sample> ring_;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Alerts.
// ---------------------------------------------------------------------------

enum class AlertKind : std::uint8_t {
  kStragglerDrift,     // one rank's step-time EWMA drifted from its peers
  kThroughputCollapse, // cluster step rate fell below a fraction of its peak
  kRetransmitStorm,    // fault-fabric retransmit rate above threshold
  kSloBurn,            // serve deadline-miss fraction burning the budget
  kQueueGrowth,        // serve queue depth growing without bound
};

const char* alert_kind_name(AlertKind kind);

struct Alert {
  AlertKind kind;
  std::int64_t rank;   // obs::kNoRank for cluster-wide detectors
  double vtime;        // virtual time of the window close that fired it
  double value;        // the statistic that crossed (z-score, rate, burn…)
  double threshold;    // the configured threshold it crossed
  std::string detail;  // deterministic human-readable one-liner
};

/// A rank failure observed via hook_failure (RankFailure unwinding, or a
/// simulated node crash). Kept apart from detector alerts: failures arrive
/// in racy thread order and are sorted by (vtime, rank) at finalize.
struct FailureRecord {
  std::int64_t rank;
  double vtime;
  std::string what;
};

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

struct MonitorConfig {
  // (a) rolling telemetry --------------------------------------------------
  /// Window length in virtual seconds; every detector evaluates once per
  /// closed window.
  double sample_interval_vs = 0.05;

  // (b) detectors ----------------------------------------------------------
  /// Windows to observe before any detector may fire (EWMA settle time).
  std::size_t warmup_windows = 3;
  /// Throughput collapse: fire when a window's step rate drops below this
  /// fraction of the peak smoothed rate.
  double collapse_fraction = 0.45;
  /// Retransmit storm: fire when a window's retransmit rate (per virtual
  /// second, summed over ranks) reaches this.
  double storm_retransmits_per_vs = 200.0;
  /// Serve SLO: minimum replies in a window before the SLO detector judges it.
  std::uint64_t slo_min_replies = 8;

  // (c) flight recorder / postmortem bundle --------------------------------
  /// Dump destination for the postmortem bundle ("" = in-memory only; the
  /// bundle is always available via bundle_json()).
  std::string bundle_path;
  /// Arm the dump trigger on hook_failure.
  bool dump_on_failure = true;
  /// Arm the dump trigger on any detector alert.
  bool dump_on_alert = false;
};

// ---------------------------------------------------------------------------
// Monitor.
// ---------------------------------------------------------------------------

class Monitor {
 public:
  explicit Monitor(MonitorConfig config = {});
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;
  ~Monitor();

  // Slow-path entry points, reached through the hook_*() wrappers below.
  // All take the monitor mutex; every call increments
  // testing::slow_path_entries().
  void on_run_begin(std::int64_t ranks);
  void on_step(std::int64_t rank, double vtime, double step_seconds);
  void on_retransmit(std::int64_t rank, double vtime, std::uint64_t n);
  void on_serve_reply(double vtime, double latency_seconds,
                      bool missed_deadline);
  void on_serve_queue(double vtime, std::int64_t depth);
  void on_tick(double vtime);
  void on_failure(std::int64_t rank, double vtime, const char* what);
  void on_run_finalize(double vtime);
  void mirror(const Event& event);  // flight-recorder feed (from the tracer)

  /// Explicit dump trigger (the third trigger source next to RankFailure
  /// and detector alerts).
  void request_dump(std::string reason, double vtime);

  // Inspection. Callers must be quiescent (run joined / finalized).
  const MonitorConfig& config() const { return config_; }
  const std::vector<Alert>& alerts() const { return alerts_; }
  const std::vector<FailureRecord>& failures() const { return failures_; }
  std::uint64_t windows_closed() const { return windows_closed_; }
  bool finalized() const { return finalized_; }
  /// True when a trigger (failure / alert / request_dump) armed the dump.
  bool triggered() const { return trigger_armed_; }
  std::string trigger_reason() const { return trigger_reason_; }

  /// The postmortem bundle ("deepscale.postmortem.v1"), serialized.
  /// Byte-deterministic for same-seed runs. Call after finalize.
  std::string bundle_json() const;
  /// The flight-recorder Chrome trace (virtual clock domain), serialized.
  /// trace_validate-clean and ingestible by analysis::ingest_chrome_trace.
  std::string flight_trace_json() const;
  /// Write bundle_json() / flight_trace_json() to the configured paths.
  /// Returns true when at least one file was written.
  bool write_bundle() const;

 private:
  struct Impl;
  MonitorConfig config_;
  Impl* impl_;

  // Mirrors of Impl state that inspection reads without the mutex (the
  // contract requires quiescence anyway, but keeping the hot aggregation
  // state behind Impl keeps this header light).
  std::vector<Alert> alerts_;
  std::vector<FailureRecord> failures_;
  std::uint64_t windows_closed_ = 0;
  bool finalized_ = false;
  bool trigger_armed_ = false;
  std::string trigger_reason_;

  friend struct MonitorAccess;
};

// ---------------------------------------------------------------------------
// Installation + one-branch hooks.
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<Monitor*> g_monitor;
}

/// Install `m` as the process-wide monitor. Pass nullptr to uninstall. Must
/// not race with an instrumented run (install before, uninstall after).
void install(Monitor* m);

/// The installed monitor, or nullptr. One relaxed load.
inline Monitor* active() {
  return detail::g_monitor.load(std::memory_order_relaxed);
}
inline bool enabled() { return active() != nullptr; }

/// RAII install/uninstall.
class InstallScope {
 public:
  explicit InstallScope(Monitor& m) { install(&m); }
  ~InstallScope() { install(nullptr); }
  InstallScope(const InstallScope&) = delete;
  InstallScope& operator=(const InstallScope&) = delete;
};

/// Sentinel: derive the step duration from the rank's previous step stamp.
inline constexpr double kDeriveStep = -1.0;

/// A run is starting with ranks 0..ranks-1. Declares the rank set windows
/// wait on and zeroes each rank's virtual clock origin.
inline void hook_run_begin(std::int64_t ranks) {
  if (Monitor* m = active()) m->on_run_begin(ranks);
}

/// Rank finished one unit of its own work (a round's compute, a sim
/// iteration) at virtual time `vtime`. `step_seconds` is the unit's modeled
/// duration; pass kDeriveStep to use the delta from the previous stamp.
inline void hook_step(std::int64_t rank, double vtime,
                      double step_seconds = kDeriveStep) {
  if (Monitor* m = active()) m->on_step(rank, vtime, step_seconds);
}

/// The fault fabric retransmitted `n` times for a send by `rank` ending at
/// `vtime` (sender's clock).
inline void hook_retransmit(std::int64_t rank, double vtime, std::uint64_t n) {
  if (Monitor* m = active()) m->on_retransmit(rank, vtime, n);
}

/// The serve loop replied to one request at `vtime`.
inline void hook_serve_reply(double vtime, double latency_seconds,
                             bool missed_deadline) {
  if (Monitor* m = active()) {
    m->on_serve_reply(vtime, latency_seconds, missed_deadline);
  }
}

/// The serve queue depth changed.
inline void hook_serve_queue(double vtime, std::int64_t depth) {
  if (Monitor* m = active()) m->on_serve_queue(vtime, depth);
}

/// Single-threaded drivers call this as their virtual clock advances; it
/// closes elapsed windows and samples the configured registry metrics.
inline void hook_tick(double vtime) {
  if (Monitor* m = active()) m->on_tick(vtime);
}

/// A rank failed (RankFailure unwound, or a simulated crash).
inline void hook_failure(std::int64_t rank, double vtime, const char* what) {
  if (Monitor* m = active()) m->on_failure(rank, vtime, what);
}

/// The run is over and worker threads have joined: force-close remaining
/// windows, capture the final registry delta, and dump if triggered.
inline void hook_run_finalize(double vtime) {
  if (Monitor* m = active()) m->on_run_finalize(vtime);
}

namespace testing {
/// Cumulative count of Monitor slow-path entries (on_* calls that reached
/// an installed monitor). Must not move while no monitor is installed —
/// obs_overhead_test pins the one-branch contract with it.
std::uint64_t slow_path_entries();
}  // namespace testing

/// Bundle schema identifier.
inline constexpr const char* kPostmortemSchema = "deepscale.postmortem.v1";

/// Validate a parsed postmortem bundle; empty vector = valid.
std::vector<std::string> validate_postmortem_json(const JsonValue& doc);

}  // namespace ds::obs::monitor
