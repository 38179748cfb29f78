// Process-wide metrics registry: named counters, gauges, double
// accumulators, and log2-bucketed histograms, all lock-free to update.
//
// Unlike the tracer, metrics are ALWAYS ON — an update is one relaxed
// atomic RMW, cheap enough to leave in the hot paths unconditionally, which
// is what lets RunResult report messages/bytes/retransmits for every run,
// traced or not. Registration (name → instrument lookup) takes the registry
// mutex; call sites cache the returned reference (instruments are never
// deallocated), so the lookup happens once per site, not per update.
//
// Runs that need per-run deltas snapshot() before and after (runs in this
// codebase are serial within a process; concurrent runs would share the
// registry).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace ds::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (queue depth, in-flight work).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Accumulating double (virtual seconds waited, flops executed).
class AccumDouble {
 public:
  void add(double x) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

inline constexpr std::size_t kHistogramBuckets = 64;

/// Sentinel returned by Histogram/HistogramWindow quantile() on an empty
/// window (all-zero buckets): quiet NaN, so an accidental read of "the p99
/// of nothing" poisons downstream arithmetic instead of smuggling in an
/// arbitrary bucket edge. Check with std::isnan (NaN != NaN).
inline constexpr double kEmptyQuantile =
    std::numeric_limits<double>::quiet_NaN();

/// Plain-data copy of a histogram's state at one instant — the subtraction
/// unit of windowed quantile reporting. Always-on instruments must never be
/// reset mid-run (other readers share them), so per-interval views are
/// built by capturing a window before and after and subtracting: the delta
/// holds exactly the interval's samples, with full quantile resolution,
/// while the global instrument keeps accumulating. This is how the serving
/// layer reports per-run (and per-second) latency quantiles off the one
/// process-wide `serve.latency_usec` histogram.
struct HistogramWindow {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  /// Quantile estimate by linear interpolation inside the log2 bucket that
  /// holds the q-th sample (bucket b ≥ 1 spans [2^(b-1), 2^b), bucket 0
  /// spans [0, 1)). q is clamped to [0, 1]; an empty window (all-zero
  /// buckets) reads kEmptyQuantile (NaN). Exact at bucket boundaries,
  /// within a factor of 2 everywhere — the resolution the paper's latency
  /// breakdowns need.
  double quantile(double q) const;

  /// this − before, bucket-wise. `before` must be an earlier window of the
  /// same instrument (every bucket monotonically ≥), or the result throws.
  HistogramWindow since(const HistogramWindow& before) const;

  /// Bucket-wise accumulate (the window-level twin of Histogram::merge).
  void merge(const HistogramWindow& other);
};

/// Histogram of non-negative samples in power-of-two buckets: bucket b
/// counts samples in [2^(b-1), 2^b) (bucket 0 takes everything < 1).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = kHistogramBuckets;

  void observe(double x);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.value(); }
  std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Consistent point-in-time copy (updates race with reads, so the window
  /// derives its count from the copied buckets, never from count_).
  HistogramWindow window() const;

  /// Quantile of everything observed so far: window().quantile(q).
  double quantile(double q) const;

  /// Bucket-wise accumulate another histogram into this one (per-worker or
  /// per-replica instruments folded into one distribution). The other
  /// histogram must be quiescent; this one may keep taking observe()s.
  void merge(const Histogram& other);

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  AccumDouble sum_;
};

/// Point-in-time view of every registered instrument, as doubles.
/// Histograms contribute "<name>.count" and "<name>.sum" entries.
class MetricsSnapshot {
 public:
  explicit MetricsSnapshot(std::map<std::string, double> values)
      : values_(std::move(values)) {}

  /// Value of `name`, 0.0 when absent.
  double value(std::string_view name) const;

  /// this[name] − before[name] (absent names read as 0).
  double delta(const MetricsSnapshot& before, std::string_view name) const;

  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name. References stay valid for the process
  /// lifetime — cache them at the call site.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  AccumDouble& accum(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// Compact metrics JSON: {"counters":{...},"gauges":{...},
  /// "accumulators":{...},"histograms":{name:{count,sum,buckets:{...}}}}.
  std::string json() const;

  /// Zero every instrument (registrations survive; cached refs stay valid).
  void reset();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-wide registry.
MetricsRegistry& metrics();

/// Canonical instrument names, shared by producers, RunResult, and tests.
namespace names {
inline constexpr const char* kFabricMessagesSent = "fabric.messages_sent";
inline constexpr const char* kFabricBytesSent = "fabric.bytes_sent";
inline constexpr const char* kFabricDrops = "fabric.drops";
inline constexpr const char* kFabricRetransmits = "fabric.retransmits";
inline constexpr const char* kFabricMessagesLost = "fabric.messages_lost";
inline constexpr const char* kFabricTimeouts = "fabric.timeouts";
inline constexpr const char* kFabricRecvWaitSeconds =
    "fabric.recv_wait_vseconds";
inline constexpr const char* kFabricMessageBytes = "fabric.message_bytes";
inline constexpr const char* kCommMessagesModeled = "comm.messages_modeled";
inline constexpr const char* kCommBytesModeled = "comm.bytes_modeled";
inline constexpr const char* kPoolTasks = "pool.tasks";
inline constexpr const char* kPoolQueueDepth = "pool.queue_depth";
inline constexpr const char* kPoolTaskWaitSeconds = "pool.task_wait_seconds";
inline constexpr const char* kGemmCalls = "gemm.calls";
inline constexpr const char* kGemmFlops = "gemm.flops";
// Convolution dispatch: total calls/flops plus a per-kernel call counter,
// and the lowering-traffic accumulators that make im2col-vs-direct memory
// traffic visible in trace_report.
inline constexpr const char* kConvCalls = "conv.calls";
inline constexpr const char* kConvFlops = "conv.flops";
inline constexpr const char* kConvIm2colCalls = "conv.im2col.calls";
inline constexpr const char* kConvDirectCalls = "conv.direct.calls";
inline constexpr const char* kIm2colBytes = "im2col.bytes";
inline constexpr const char* kCol2imBytes = "col2im.bytes";
// Serving front-end (src/serve): request lifecycle counters, the log2
// latency histogram (virtual MICROseconds — sub-millisecond latencies need
// bucket resolution below 1.0), and the dispatched batch-size histogram.
// Per-run views come from Histogram windows (HistogramWindow::since), never
// from resetting the registry.
inline constexpr const char* kServeRequests = "serve.requests";
inline constexpr const char* kServeServed = "serve.served";
inline constexpr const char* kServeShed = "serve.shed";
inline constexpr const char* kServeDeadlineMiss = "serve.deadline_miss";
inline constexpr const char* kServeQueueDepth = "serve.queue_depth";
inline constexpr const char* kServeLatencyUsec = "serve.latency_usec";
inline constexpr const char* kServeBatchSize = "serve.batch_size";
inline constexpr const char* kServeScaleEvents = "serve.scale_events";
// Online health monitor (src/obs/monitor): windows closed, detector alerts
// fired, postmortem bundles dumped. Only bumped while a Monitor is
// installed.
inline constexpr const char* kMonitorWindows = "monitor.windows";
inline constexpr const char* kMonitorAlerts = "monitor.alerts";
inline constexpr const char* kMonitorDumps = "monitor.dumps";
}  // namespace names

}  // namespace ds::obs
