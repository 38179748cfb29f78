#include "obs/monitor/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string_view>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/thread_annotations.hpp"

namespace ds::obs::monitor {

namespace detail {
std::atomic<Monitor*> g_monitor{nullptr};
}  // namespace detail

void install(Monitor* m) {
  detail::g_monitor.store(m, std::memory_order_release);
}

namespace {

std::atomic<std::uint64_t> g_slow_entries{0};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deterministic short number formatting for alert detail strings.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

std::string num(std::int64_t v) { return std::to_string(v); }

// Fixed tuning (DESIGN.md §13); the bundle's "config" section reports it
// next to MonitorConfig's fields.
/// Ring capacity of every TimeSeries (per-rank step series, queue depth,
/// sampled metric rates).
constexpr std::size_t kSeriesCapacity = 512;
/// Registry instruments sampled into ".rate_per_vs" series at each window
/// close — tick-driven (single-threaded) runs only.
constexpr const char* kSampledMetrics[] = {
    names::kFabricRetransmits, names::kServeServed, names::kServeShed,
    names::kServeDeadlineMiss};
/// EWMA smoothing factor for per-rank step means and the cluster rate.
constexpr double kEwmaAlpha = 0.3;
/// Straggler drift: fire when a rank's step-time EWMA sits kStragglerZ
/// sigmas above the leave-one-out mean of its peers, where sigma is floored
/// at kStragglerMinSigmaFrac of the peer mean (a tight peer group would
/// otherwise make any jitter look infinitely anomalous).
constexpr double kStragglerZ = 4.0;
constexpr double kStragglerMinSigmaFrac = 0.05;
/// Serve SLO: the deadline-miss budget (fraction of replies allowed to
/// miss) and the burn-rate multiple that fires (miss_fraction / budget).
constexpr double kSloMissBudget = 0.01;
constexpr double kSloBurnThreshold = 4.0;
/// Queue growth: fire when the queue-depth slope (requests per virtual
/// second, least-squares over the retained series) reaches kSloQueueSlope
/// and the latest depth is at least kSloQueueMinDepth.
constexpr double kSloQueueSlope = 50.0;
constexpr std::int64_t kSloQueueMinDepth = 8;
/// Per-rank ring capacity of mirrored trace events.
constexpr std::size_t kFlightEventsPerRank = 1024;
/// Registry-name prefixes captured into the bundle's "metrics" section at
/// finalize. Wall-clock instruments (pool.task_wait_seconds) stay out so the
/// bundle is byte-deterministic.
constexpr std::string_view kMetricPrefixes[] = {"fabric.", "comm.", "serve.",
                                                "monitor."};
/// Dropped although a prefix matches: the one float accumulator whose
/// cross-thread addition order is interleaving-dependent, so its low bits
/// would break the bundle's byte-determinism.
constexpr std::string_view kMetricExclude = "fabric.recv_wait_vseconds";

}  // namespace

// ---------------------------------------------------------------------------
// TimeSeries.
// ---------------------------------------------------------------------------

TimeSeries::TimeSeries(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void TimeSeries::push(double t, double v) {
  ring_[head_] = Sample{t, v};
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
}

Sample TimeSeries::at(std::size_t i) const {
  DS_CHECK(i < size_, "TimeSeries::at out of range");
  const std::size_t oldest = (head_ + ring_.size() - size_) % ring_.size();
  return ring_[(oldest + i) % ring_.size()];
}

Sample TimeSeries::back() const {
  DS_CHECK(size_ > 0, "TimeSeries::back on empty series");
  return ring_[(head_ + ring_.size() - 1) % ring_.size()];
}

double TimeSeries::mean() const {
  if (size_ == 0) return kNaN;
  double s = 0.0;
  for (std::size_t i = 0; i < size_; ++i) s += at(i).v;
  return s / static_cast<double>(size_);
}

double TimeSeries::min() const {
  if (size_ == 0) return kNaN;
  double m = kInf;
  for (std::size_t i = 0; i < size_; ++i) m = std::min(m, at(i).v);
  return m;
}

double TimeSeries::max() const {
  if (size_ == 0) return kNaN;
  double m = -kInf;
  for (std::size_t i = 0; i < size_; ++i) m = std::max(m, at(i).v);
  return m;
}

double TimeSeries::slope() const {
  if (size_ < 2) return 0.0;
  double mt = 0.0;
  double mv = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    mt += at(i).t;
    mv += at(i).v;
  }
  mt /= static_cast<double>(size_);
  mv /= static_cast<double>(size_);
  double stt = 0.0;
  double stv = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    const Sample s = at(i);
    stt += (s.t - mt) * (s.t - mt);
    stv += (s.t - mt) * (s.v - mv);
  }
  if (stt <= 0.0) return 0.0;
  return stv / stt;
}

// ---------------------------------------------------------------------------
// Alerts.
// ---------------------------------------------------------------------------

const char* alert_kind_name(AlertKind kind) {
  switch (kind) {
    case AlertKind::kStragglerDrift:
      return "straggler_drift";
    case AlertKind::kThroughputCollapse:
      return "throughput_collapse";
    case AlertKind::kRetransmitStorm:
      return "retransmit_storm";
    case AlertKind::kSloBurn:
      return "slo_burn";
    case AlertKind::kQueueGrowth:
      return "queue_growth";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Monitor::Impl.
// ---------------------------------------------------------------------------

namespace {

struct WindowAccum {
  double step_sum = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t retransmits = 0;
};

struct ServeAccum {
  std::uint64_t replies = 0;
  std::uint64_t misses = 0;
  double latency_sum = 0.0;
};

struct FlightRing {
  std::vector<Event> ring;
  std::size_t head = 0;
  std::size_t size = 0;
  std::uint64_t total = 0;

  void push(const Event& e, std::size_t capacity) {
    if (ring.size() < capacity) ring.resize(capacity);
    ring[head] = e;
    head = (head + 1) % ring.size();
    if (size < ring.size()) ++size;
    ++total;
  }
};

}  // namespace

struct Monitor::Impl {
  Impl()
      : queue_series(kSeriesCapacity),
        start_snapshot(metrics().snapshot()),
        prev_sample(start_snapshot),
        latency_hist(&metrics().histogram(names::kServeLatencyUsec)),
        start_latency(latency_hist->window()),
        prev_latency(start_latency),
        alerts_ctr(metrics().counter(names::kMonitorAlerts)),
        windows_ctr(metrics().counter(names::kMonitorWindows)),
        dumps_ctr(metrics().counter(names::kMonitorDumps)) {}

  struct RankState {
    RankState() : step_series(kSeriesCapacity) {}
    bool alive = true;
    double watermark = 0.0;
    double last_stamp = 0.0;
    double ewma_step = kNaN;
    std::uint64_t steps_total = 0;
    std::map<std::int64_t, WindowAccum> open;  // window index → accumulator
    TimeSeries step_series;                    // (vtime, step seconds)
  };

  mutable Mutex mu;
  mutable Mutex flight_mu;  // mu → flight_mu only; mirror takes only it

  std::map<std::int64_t, RankState> ranks DS_GUARDED_BY(mu);
  bool rank_mode DS_GUARDED_BY(mu) = false;

  std::int64_t closed_upto DS_GUARDED_BY(mu) = -1;  // highest closed window
  double tick_watermark DS_GUARDED_BY(mu) = 0.0;
  bool tick_seen DS_GUARDED_BY(mu) = false;

  std::map<std::int64_t, ServeAccum> serve_open DS_GUARDED_BY(mu);
  TimeSeries queue_series DS_GUARDED_BY(mu);
  bool serve_seen DS_GUARDED_BY(mu) = false;

  // Cluster step-rate EWMA and its running peak (collapse detector).
  double rate_ewma DS_GUARDED_BY(mu) = kNaN;
  double rate_peak DS_GUARDED_BY(mu) = 0.0;

  // Edge-trigger latches: an alert fires on the rising edge only.
  std::set<std::int64_t> straggler_latched DS_GUARDED_BY(mu);
  bool collapse_latched DS_GUARDED_BY(mu) = false;
  bool storm_latched DS_GUARDED_BY(mu) = false;
  bool slo_latched DS_GUARDED_BY(mu) = false;
  bool queue_latched DS_GUARDED_BY(mu) = false;

  // Registry sampling (tick-driven runs only; see header contract).
  MetricsSnapshot start_snapshot DS_GUARDED_BY(mu);
  MetricsSnapshot prev_sample DS_GUARDED_BY(mu);
  const Histogram* latency_hist DS_GUARDED_BY(mu);
  HistogramWindow start_latency DS_GUARDED_BY(mu);
  HistogramWindow prev_latency DS_GUARDED_BY(mu);
  std::map<std::string, TimeSeries> series DS_GUARDED_BY(mu);

  std::map<std::int64_t, FlightRing> flight DS_GUARDED_BY(flight_mu);

  // Finalize capture.
  std::map<std::string, double> final_metrics DS_GUARDED_BY(mu);
  HistogramWindow final_latency DS_GUARDED_BY(mu);
  bool have_latency DS_GUARDED_BY(mu) = false;
  double finalize_vtime DS_GUARDED_BY(mu) = 0.0;

  // Dump trigger; retained trigger is min by (vtime, rank) so concurrent
  // failures resolve deterministically.
  double trigger_vtime DS_GUARDED_BY(mu) = kInf;
  std::int64_t trigger_rank DS_GUARDED_BY(mu) = kNoRank;

  Counter& alerts_ctr;
  Counter& windows_ctr;
  Counter& dumps_ctr;
};

// ---------------------------------------------------------------------------
// Monitor.
// ---------------------------------------------------------------------------

Monitor::Monitor(MonitorConfig config) : config_(std::move(config)) {
  DS_CHECK(config_.sample_interval_vs > 0.0,
           "monitor: sample_interval_vs must be positive");
  impl_ = new Impl();
}

Monitor::~Monitor() {
  DS_CHECK(active() != this, "monitor: destroyed while installed");
  delete impl_;
}

namespace {

// Window arithmetic: window w covers [w·dt, (w+1)·dt) in virtual seconds.
std::int64_t window_index(double t, double dt) {
  if (!(t > 0.0)) return 0;
  return static_cast<std::int64_t>(t / dt);
}

double window_end(std::int64_t w, double dt) {
  return static_cast<double>(w + 1) * dt;
}

}  // namespace

void Monitor::on_run_begin(std::int64_t ranks) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  impl_->rank_mode = true;
  for (std::int64_t r = 0; r < ranks; ++r) {
    impl_->ranks.try_emplace(r);
  }
}

// The window-close engine needs access to both config_ and the private
// alert/failure vectors; it runs as static members of this friend helper,
// always with impl_->mu held by the calling on_*() method. Every function
// takes the Impl explicitly and is DS_REQUIRES(im.mu): the capability is a
// parameter expression, so clang substitutes the caller's argument and
// checks the lock is held at every call site — the PR 9 relock bug
// (re-entering a mu-taking public method from under mu) is a compile error
// under -Wthread-safety, not a runtime deadlock.
struct MonitorAccess {
  using Impl = Monitor::Impl;
  static void step(Monitor& m, Impl& im, std::int64_t rank, double vtime,
                   double step_seconds) DS_REQUIRES(im.mu);
  static void retransmit(Monitor& m, Impl& im, std::int64_t rank, double vtime,
                         std::uint64_t n) DS_REQUIRES(im.mu);
  static void maybe_close(Monitor& m, Impl& im, bool force,
                          std::int64_t force_upto) DS_REQUIRES(im.mu);
  static void close_window(Monitor& m, Impl& im, std::int64_t w, bool forced)
      DS_REQUIRES(im.mu);
  static void arm_trigger(Monitor& m, Impl& im, const std::string& reason,
                          std::int64_t rank, double vtime) DS_REQUIRES(im.mu);
  static double horizon(const Impl& im) DS_REQUIRES(im.mu);
  static JsonValue build_bundle(const Monitor& m, Impl& im)
      DS_REQUIRES(im.mu) DS_EXCLUDES(im.flight_mu);
  static std::string build_flight(const Monitor& m, Impl& im)
      DS_REQUIRES(im.mu) DS_EXCLUDES(im.flight_mu);
  static bool write_bundle_locked(const Monitor& m, Impl& im)
      DS_REQUIRES(im.mu) DS_EXCLUDES(im.flight_mu);
  static void fire(Monitor& m, Impl& im, AlertKind kind, std::int64_t rank,
                   double vtime, double value, double threshold,
                   std::string detail) DS_REQUIRES(im.mu);
};

double MonitorAccess::horizon(const Impl& im) {
  if (!im.rank_mode) return im.tick_seen ? im.tick_watermark : 0.0;
  double lo = kInf;
  double hi = 0.0;
  bool any_alive = false;
  for (const auto& [r, rs] : im.ranks) {
    (void)r;
    hi = std::max(hi, rs.watermark);
    if (rs.alive) {
      any_alive = true;
      lo = std::min(lo, rs.watermark);
    }
  }
  // With every rank dead, windows would never close; let the survivors'
  // high-water mark drain them instead.
  return any_alive ? lo : hi;
}

void MonitorAccess::arm_trigger(Monitor& m, Impl& im,
                                const std::string& reason, std::int64_t rank,
                                double vtime) {
  if (!m.trigger_armed_ || vtime < im.trigger_vtime ||
      (vtime == im.trigger_vtime && rank < im.trigger_rank)) {
    m.trigger_armed_ = true;
    im.trigger_vtime = vtime;
    im.trigger_rank = rank;
    m.trigger_reason_ = reason;
  }
}

void MonitorAccess::fire(Monitor& m, Impl& im, AlertKind kind,
                         std::int64_t rank, double vtime, double value,
                         double threshold, std::string detail) {
  m.alerts_.push_back(
      Alert{kind, rank, vtime, value, threshold, std::move(detail)});
  im.alerts_ctr.add(1);
  if (m.config_.dump_on_alert) {
    arm_trigger(m, im, std::string("alert: ") + alert_kind_name(kind), rank,
                vtime);
  }
}

void MonitorAccess::close_window(Monitor& m, Impl& im, std::int64_t w,
                                 bool forced) {
  const MonitorConfig& cfg = m.config_;
  const double dt = cfg.sample_interval_vs;
  const double t_end = window_end(w, dt);

  std::uint64_t steps_w = 0;
  std::uint64_t retr_w = 0;
  for (auto& [r, rs] : im.ranks) {
    (void)r;
    WindowAccum acc;
    if (auto it = rs.open.find(w); it != rs.open.end()) {
      acc = it->second;
      rs.open.erase(it);
    }
    steps_w += acc.steps;
    retr_w += acc.retransmits;
    if (acc.steps > 0) {
      const double mean = acc.step_sum / static_cast<double>(acc.steps);
      rs.ewma_step = std::isnan(rs.ewma_step)
                         ? mean
                         : kEwmaAlpha * mean +
                               (1.0 - kEwmaAlpha) * rs.ewma_step;
    }
  }
  ServeAccum sv;
  if (auto it = im.serve_open.find(w); it != im.serve_open.end()) {
    sv = it->second;
    im.serve_open.erase(it);
  }

  im.closed_upto = w;
  ++m.windows_closed_;
  im.windows_ctr.add(1);

  const bool warm = w >= static_cast<std::int64_t>(cfg.warmup_windows);

  // Rolling series kept regardless of detector eligibility.
  if (im.rank_mode) {
    const double rate = static_cast<double>(steps_w) / dt;
    im.rate_ewma = std::isnan(im.rate_ewma)
                       ? rate
                       : kEwmaAlpha * rate +
                             (1.0 - kEwmaAlpha) * im.rate_ewma;
    im.rate_peak = std::max(im.rate_peak, im.rate_ewma);
    auto [it, inserted] = im.series.try_emplace("cluster.steps_per_vs",
                                                kSeriesCapacity);
    (void)inserted;
    it->second.push(t_end, rate);
    auto [rit, rinserted] = im.series.try_emplace("fabric.retransmits_per_vs",
                                                  kSeriesCapacity);
    (void)rinserted;
    rit->second.push(t_end, static_cast<double>(retr_w) / dt);
  }
  if (sv.replies > 0) {
    const double miss_frac =
        static_cast<double>(sv.misses) / static_cast<double>(sv.replies);
    auto [it, inserted] =
        im.series.try_emplace("serve.miss_fraction", kSeriesCapacity);
    (void)inserted;
    it->second.push(t_end, miss_frac);
  }

  // Forced closes (finalize) fold data but never judge: the trailing
  // partial windows of a healthy run would otherwise read as a collapse.
  if (forced) return;

  // Detector order is fixed: straggler (rank ascending), collapse, storm,
  // SLO burn, queue growth — so the alert log is a deterministic sequence.
  if (im.rank_mode && warm) {
    std::vector<std::pair<std::int64_t, double>> ewmas;
    for (const auto& [r, rs] : im.ranks) {
      if (rs.alive && !std::isnan(rs.ewma_step)) ewmas.emplace_back(r, rs.ewma_step);
    }
    if (ewmas.size() >= 3) {
      for (const auto& [r, e] : ewmas) {
        double sum = 0.0;
        for (const auto& [o, oe] : ewmas) {
          if (o != r) sum += oe;
        }
        const double mean = sum / static_cast<double>(ewmas.size() - 1);
        double var = 0.0;
        for (const auto& [o, oe] : ewmas) {
          if (o != r) var += (oe - mean) * (oe - mean);
        }
        var /= static_cast<double>(ewmas.size() - 1);
        const double sigma =
            std::max({std::sqrt(var), kStragglerMinSigmaFrac * mean,
                      1e-12});
        const double z = (e - mean) / sigma;
        const bool latched = im.straggler_latched.count(r) > 0;
        if (z >= kStragglerZ && !latched) {
          im.straggler_latched.insert(r);
          fire(m, im, AlertKind::kStragglerDrift, r, t_end, z, kStragglerZ,
               "rank " + num(r) + " step EWMA " + num(e) + "s vs peers " +
                   num(mean) + "s (z=" + num(z) + ")");
        } else if (latched && z < 0.5 * kStragglerZ) {
          im.straggler_latched.erase(r);
        }
      }
    }
  }

  if (im.rank_mode && warm && im.rate_peak > 0.0) {
    const double floor = cfg.collapse_fraction * im.rate_peak;
    if (im.rate_ewma < floor && !im.collapse_latched) {
      im.collapse_latched = true;
      fire(m, im, AlertKind::kThroughputCollapse, kNoRank, t_end, im.rate_ewma,
           floor,
           "smoothed step rate " + num(im.rate_ewma) + "/vs fell below " +
               num(floor) + "/vs (peak " + num(im.rate_peak) + "/vs)");
    } else if (im.collapse_latched && im.rate_ewma >= floor) {
      im.collapse_latched = false;
    }
  }

  if (im.rank_mode && warm) {
    const double rrate = static_cast<double>(retr_w) / dt;
    if (rrate >= cfg.storm_retransmits_per_vs && !im.storm_latched) {
      im.storm_latched = true;
      fire(m, im, AlertKind::kRetransmitStorm, kNoRank, t_end, rrate,
           cfg.storm_retransmits_per_vs,
           "retransmit rate " + num(rrate) + "/vs in window " + num(w));
    } else if (im.storm_latched &&
               rrate < 0.5 * cfg.storm_retransmits_per_vs) {
      im.storm_latched = false;
    }
  }

  if (warm && sv.replies >= cfg.slo_min_replies) {
    const double miss_frac =
        static_cast<double>(sv.misses) / static_cast<double>(sv.replies);
    const double burn = miss_frac / kSloMissBudget;
    if (burn >= kSloBurnThreshold && !im.slo_latched) {
      im.slo_latched = true;
      fire(m, im, AlertKind::kSloBurn, kNoRank, t_end, burn,
           kSloBurnThreshold,
           "deadline-miss fraction " + num(miss_frac) + " burns " + num(burn) +
               "x the " + num(kSloMissBudget) + " budget (" +
               num(static_cast<std::int64_t>(sv.misses)) + "/" +
               num(static_cast<std::int64_t>(sv.replies)) + " replies)");
    } else if (im.slo_latched && burn < 0.5 * kSloBurnThreshold) {
      im.slo_latched = false;
    }
  }

  if (warm && im.serve_seen && im.queue_series.size() >= 8) {
    const double slope = im.queue_series.slope();
    const double depth = im.queue_series.back().v;
    if (slope >= kSloQueueSlope &&
        depth >= static_cast<double>(kSloQueueMinDepth) &&
        !im.queue_latched) {
      im.queue_latched = true;
      fire(m, im, AlertKind::kQueueGrowth, kNoRank, t_end, slope,
           kSloQueueSlope,
           "queue depth " + num(depth) + " growing at " + num(slope) +
               " req/vs");
    } else if (im.queue_latched && slope < 0.5 * kSloQueueSlope) {
      im.queue_latched = false;
    }
  }

  // Registry-delta sampling: tick-driven (single-threaded) runs only.
  if (!im.rank_mode && im.tick_seen) {
    const MetricsSnapshot snap = metrics().snapshot();
    for (const std::string name : kSampledMetrics) {
      const double rate = snap.delta(im.prev_sample, name) / dt;
      auto [it, inserted] =
          im.series.try_emplace(name + ".rate_per_vs", kSeriesCapacity);
      (void)inserted;
      it->second.push(t_end, rate);
    }
    im.prev_sample = snap;
    const HistogramWindow cur = im.latency_hist->window();
    const HistogramWindow delta = cur.since(im.prev_latency);
    if (delta.count > 0) {
      auto [it, inserted] =
          im.series.try_emplace("serve.p99_usec", kSeriesCapacity);
      (void)inserted;
      it->second.push(t_end, delta.quantile(0.99));
    }
    im.prev_latency = cur;
  }
}

void MonitorAccess::maybe_close(Monitor& m, Impl& im, bool force,
                                std::int64_t force_upto) {
  const double dt = m.config_.sample_interval_vs;
  for (;;) {
    const std::int64_t w = im.closed_upto + 1;
    if (force) {
      if (w > force_upto) break;
    } else {
      if (window_end(w, dt) > horizon(im)) break;
    }
    close_window(m, im, w, force);
  }
}

void MonitorAccess::step(Monitor& m, Impl& im, std::int64_t rank,
                         double vtime, double step_seconds) {
  auto [it, inserted] =
      im.ranks.try_emplace(rank);
  if (inserted) im.rank_mode = true;
  Monitor::Impl::RankState& rs = it->second;
  if (step_seconds < 0.0) {
    step_seconds = std::max(vtime - rs.last_stamp, 0.0);
  }
  rs.last_stamp = vtime;
  rs.watermark = std::max(rs.watermark, vtime);
  ++rs.steps_total;
  WindowAccum& acc =
      rs.open[window_index(vtime, m.config_.sample_interval_vs)];
  ++acc.steps;
  acc.step_sum += step_seconds;
  rs.step_series.push(vtime, step_seconds);
  maybe_close(m, im, false, -1);
}

void MonitorAccess::retransmit(Monitor& m, Impl& im, std::int64_t rank,
                               double vtime, std::uint64_t n) {
  auto [it, inserted] =
      im.ranks.try_emplace(rank);
  if (inserted) im.rank_mode = true;
  Monitor::Impl::RankState& rs = it->second;
  rs.watermark = std::max(rs.watermark, vtime);
  rs.open[window_index(vtime, m.config_.sample_interval_vs)].retransmits += n;
  maybe_close(m, im, false, -1);
}

void Monitor::on_step(std::int64_t rank, double vtime, double step_seconds) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  MonitorAccess::step(*this, *impl_, rank, vtime, step_seconds);
}

void Monitor::on_retransmit(std::int64_t rank, double vtime,
                            std::uint64_t n) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  MonitorAccess::retransmit(*this, *impl_, rank, vtime, n);
}

void Monitor::on_serve_reply(double vtime, double latency_seconds,
                             bool missed_deadline) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  impl_->serve_seen = true;
  impl_->tick_seen = true;
  impl_->tick_watermark = std::max(impl_->tick_watermark, vtime);
  ServeAccum& sv =
      impl_->serve_open[window_index(vtime, config_.sample_interval_vs)];
  ++sv.replies;
  if (missed_deadline) ++sv.misses;
  sv.latency_sum += latency_seconds;
  MonitorAccess::maybe_close(*this, *impl_, false, -1);
}

void Monitor::on_serve_queue(double vtime, std::int64_t depth) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  impl_->serve_seen = true;
  impl_->tick_seen = true;
  impl_->tick_watermark = std::max(impl_->tick_watermark, vtime);
  impl_->queue_series.push(vtime, static_cast<double>(depth));
  MonitorAccess::maybe_close(*this, *impl_, false, -1);
}

void Monitor::on_tick(double vtime) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  impl_->tick_seen = true;
  impl_->tick_watermark = std::max(impl_->tick_watermark, vtime);
  MonitorAccess::maybe_close(*this, *impl_, false, -1);
}

void Monitor::on_failure(std::int64_t rank, double vtime, const char* what) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  failures_.push_back(
      FailureRecord{rank, vtime, what != nullptr ? what : ""});
  auto [it, inserted] =
      impl_->ranks.try_emplace(rank);
  if (inserted) impl_->rank_mode = true;
  it->second.alive = false;
  it->second.watermark = std::max(it->second.watermark, vtime);
  if (config_.dump_on_failure) {
    MonitorAccess::arm_trigger(*this, *impl_, "rank_failure", rank, vtime);
  }
  MonitorAccess::maybe_close(*this, *impl_, false, -1);
}

void Monitor::request_dump(std::string reason, double vtime) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  MonitorAccess::arm_trigger(*this, *impl_, "request: " + std::move(reason),
                             kNoRank, vtime);
}

void Monitor::on_run_finalize(double vtime) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(impl_->mu);
  impl_->finalize_vtime = std::max(impl_->finalize_vtime, vtime);

  // Drain: first close everything the horizon already covers (these still
  // judge detectors), then force-close any window holding residual data.
  MonitorAccess::maybe_close(*this, *impl_, false, -1);
  std::int64_t upto = impl_->closed_upto;
  for (const auto& [r, rs] : impl_->ranks) {
    (void)r;
    for (const auto& [w, acc] : rs.open) {
      (void)acc;
      upto = std::max(upto, w);
    }
  }
  for (const auto& [w, acc] : impl_->serve_open) {
    (void)acc;
    upto = std::max(upto, w);
  }
  MonitorAccess::maybe_close(*this, *impl_, true, upto);

  std::sort(failures_.begin(), failures_.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              if (a.vtime != b.vtime) return a.vtime < b.vtime;
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.what < b.what;
            });

  const MetricsSnapshot snap = metrics().snapshot();
  impl_->final_metrics.clear();
  for (const auto& [name, value] : snap.values()) {
    if (name == kMetricExclude) continue;
    for (const std::string_view prefix : kMetricPrefixes) {
      if (name.rfind(prefix, 0) == 0) {
        impl_->final_metrics[name] = value - impl_->start_snapshot.value(name);
        break;
      }
    }
  }
  impl_->final_latency =
      impl_->latency_hist->window().since(impl_->start_latency);
  impl_->have_latency = impl_->final_latency.count > 0;

  finalized_ = true;

  if (trigger_armed_) {
    impl_->dumps_ctr.add(1);
    if (!config_.bundle_path.empty()) {
      // mu is held here — go through the DS_REQUIRES(im.mu) locked writer,
      // not the public write_bundle() (which takes mu itself; the PR 9
      // self-deadlock, now a -Wthread-safety error).
      MonitorAccess::write_bundle_locked(*this, *impl_);
    }
  }
}

void Monitor::mirror(const Event& event) {
  g_slow_entries.fetch_add(1, std::memory_order_relaxed);
  if (std::isnan(event.vtime)) return;
  const MutexLock lock(impl_->flight_mu);
  impl_->flight[event.rank].push(event, kFlightEventsPerRank);
}

namespace testing {
std::uint64_t slow_path_entries() {
  return g_slow_entries.load(std::memory_order_relaxed);
}
}  // namespace testing

// ---------------------------------------------------------------------------
// Bundle serialization.
// ---------------------------------------------------------------------------

namespace {

JsonValue series_json(const TimeSeries& s) {
  JsonArray arr;
  arr.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Sample smp = s.at(i);
    arr.push_back(JsonValue(JsonArray{JsonValue(smp.t), JsonValue(smp.v)}));
  }
  return JsonValue(std::move(arr));
}

}  // namespace

JsonValue MonitorAccess::build_bundle(const Monitor& m, Impl& im) {
  const MonitorConfig& cfg = m.config_;
  JsonObject doc;
  doc.emplace("schema", JsonValue(std::string(kPostmortemSchema)));
  doc.emplace("finalized", JsonValue(m.finalized_));
  doc.emplace("finalize_vtime", JsonValue(im.finalize_vtime));
  doc.emplace("windows_closed",
              JsonValue(static_cast<double>(m.windows_closed_)));

  JsonObject cfgj;
  cfgj.emplace("sample_interval_vs", JsonValue(cfg.sample_interval_vs));
  cfgj.emplace("series_capacity",
               JsonValue(static_cast<double>(kSeriesCapacity)));
  cfgj.emplace("warmup_windows",
               JsonValue(static_cast<double>(cfg.warmup_windows)));
  cfgj.emplace("ewma_alpha", JsonValue(kEwmaAlpha));
  cfgj.emplace("straggler_z", JsonValue(kStragglerZ));
  cfgj.emplace("collapse_fraction", JsonValue(cfg.collapse_fraction));
  cfgj.emplace("storm_retransmits_per_vs",
               JsonValue(cfg.storm_retransmits_per_vs));
  cfgj.emplace("slo_miss_budget", JsonValue(kSloMissBudget));
  cfgj.emplace("slo_burn_threshold", JsonValue(kSloBurnThreshold));
  cfgj.emplace("flight_events_per_rank",
               JsonValue(static_cast<double>(kFlightEventsPerRank)));
  doc.emplace("config", JsonValue(std::move(cfgj)));

  if (m.trigger_armed_) {
    JsonObject trig;
    trig.emplace("reason", JsonValue(m.trigger_reason_));
    trig.emplace("rank", JsonValue(static_cast<double>(im.trigger_rank)));
    trig.emplace("vtime", JsonValue(im.trigger_vtime));
    doc.emplace("trigger", JsonValue(std::move(trig)));
  } else {
    doc.emplace("trigger", JsonValue());
  }

  JsonArray alerts;
  for (const Alert& a : m.alerts_) {
    JsonObject aj;
    aj.emplace("kind", JsonValue(std::string(alert_kind_name(a.kind))));
    aj.emplace("rank", JsonValue(static_cast<double>(a.rank)));
    aj.emplace("vtime", JsonValue(a.vtime));
    aj.emplace("value", JsonValue(a.value));
    aj.emplace("threshold", JsonValue(a.threshold));
    aj.emplace("detail", JsonValue(a.detail));
    alerts.push_back(JsonValue(std::move(aj)));
  }
  doc.emplace("alerts", JsonValue(std::move(alerts)));

  JsonArray failures;
  for (const FailureRecord& f : m.failures_) {
    JsonObject fj;
    fj.emplace("rank", JsonValue(static_cast<double>(f.rank)));
    fj.emplace("vtime", JsonValue(f.vtime));
    fj.emplace("what", JsonValue(f.what));
    failures.push_back(JsonValue(std::move(fj)));
  }
  doc.emplace("failures", JsonValue(std::move(failures)));

  JsonObject ranks;
  for (const auto& [r, rs] : im.ranks) {
    JsonObject rj;
    rj.emplace("alive", JsonValue(rs.alive));
    rj.emplace("steps", JsonValue(static_cast<double>(rs.steps_total)));
    rj.emplace("ewma_step_vs", JsonValue(rs.ewma_step));
    rj.emplace("watermark_vtime", JsonValue(rs.watermark));
    rj.emplace("step_series", series_json(rs.step_series));
    ranks.emplace(std::to_string(r), JsonValue(std::move(rj)));
  }
  doc.emplace("ranks", JsonValue(std::move(ranks)));

  JsonObject series;
  for (const auto& [name, s] : im.series) {
    series.emplace(name, series_json(s));
  }
  if (im.queue_series.size() > 0) {
    series.emplace("serve.queue_depth", series_json(im.queue_series));
  }
  doc.emplace("series", JsonValue(std::move(series)));

  JsonObject metricsj;
  for (const auto& [name, delta] : im.final_metrics) {
    metricsj.emplace(name, JsonValue(delta));
  }
  doc.emplace("metrics", JsonValue(std::move(metricsj)));

  if (im.have_latency) {
    JsonObject serve;
    serve.emplace("latency_count",
                  JsonValue(static_cast<double>(im.final_latency.count)));
    serve.emplace("latency_mean_usec", JsonValue(im.final_latency.mean()));
    serve.emplace("latency_p50_usec",
                  JsonValue(im.final_latency.quantile(0.50)));
    serve.emplace("latency_p95_usec",
                  JsonValue(im.final_latency.quantile(0.95)));
    serve.emplace("latency_p99_usec",
                  JsonValue(im.final_latency.quantile(0.99)));
    doc.emplace("serve", JsonValue(std::move(serve)));
  } else {
    doc.emplace("serve", JsonValue());
  }

  {
    const MutexLock flight_lock(im.flight_mu);
    JsonObject flight;
    flight.emplace(
        "per_rank_capacity",
        JsonValue(static_cast<double>(kFlightEventsPerRank)));
    JsonObject per_rank;
    for (const auto& [r, ring] : im.flight) {
      JsonObject pj;
      pj.emplace("events", JsonValue(static_cast<double>(ring.size)));
      pj.emplace("dropped", JsonValue(static_cast<double>(
                                ring.total - ring.size)));
      per_rank.emplace(std::to_string(r), JsonValue(std::move(pj)));
    }
    flight.emplace("ranks", JsonValue(std::move(per_rank)));
    doc.emplace("flight", JsonValue(std::move(flight)));
  }

  return JsonValue(std::move(doc));
}

std::string Monitor::bundle_json() const {
  const MutexLock lock(impl_->mu);
  return write_json(MonitorAccess::build_bundle(*this, *impl_));
}

// ---------------------------------------------------------------------------
// Flight-recorder Chrome trace.
// ---------------------------------------------------------------------------

namespace {

// Pid mapping from obs/chrome_trace.hpp, so analysis::ingest_chrome_trace
// maps the flight trace back onto ranks.
std::int64_t virtual_pid(std::int64_t rank) {
  return kVirtualPidBase + (rank >= 0 ? rank : 0);
}

std::int64_t instant_pid(std::int64_t rank) {
  return rank == kNoRank ? kHostPid : kVirtualPidBase + rank;
}

void emplace_num(JsonObject& o, const char* key, double v) {
  o.emplace(key, JsonValue(v));
}

JsonValue meta_event(std::int64_t pid, const std::string& label) {
  JsonObject e;
  e.emplace("ph", JsonValue(std::string("M")));
  emplace_num(e, "pid", static_cast<double>(pid));
  emplace_num(e, "tid", 0.0);
  emplace_num(e, "ts", 0.0);
  e.emplace("name", JsonValue(std::string("process_name")));
  JsonObject args;
  args.emplace("name", JsonValue(label));
  e.emplace("args", JsonValue(std::move(args)));
  return JsonValue(std::move(e));
}

JsonValue flight_event_json(const Event& ev) {
  JsonObject e;
  emplace_num(e, "tid", 0.0);
  e.emplace("cat",
            JsonValue(std::string(ev.category != nullptr ? ev.category : "")));
  e.emplace("name", JsonValue(std::string(ev.name != nullptr ? ev.name : "")));
  if (ev.type == EventType::kCompleteV) {
    e.emplace("ph", JsonValue(std::string("X")));
    emplace_num(e, "pid", static_cast<double>(virtual_pid(ev.rank)));
    emplace_num(e, "ts", ev.vtime * 1e6);
    emplace_num(e, "dur", std::isnan(ev.value) ? 0.0 : ev.value * 1e6);
    JsonObject args;
    emplace_num(args, "vt", ev.vtime);
    if (!std::isnan(ev.aux)) emplace_num(args, "annotation", ev.aux);
    e.emplace("args", JsonValue(std::move(args)));
  } else {
    e.emplace("ph", JsonValue(std::string("i")));
    e.emplace("s", JsonValue(std::string("t")));
    emplace_num(e, "pid", static_cast<double>(instant_pid(ev.rank)));
    emplace_num(e, "ts", ev.vtime * 1e6);
    JsonObject args;
    emplace_num(args, "vt", ev.vtime);
    if (!std::isnan(ev.value)) emplace_num(args, "value", ev.value);
    if (!std::isnan(ev.aux)) emplace_num(args, "aux", ev.aux);
    e.emplace("args", JsonValue(std::move(args)));
  }
  return JsonValue(std::move(e));
}

JsonValue monitor_instant(const char* name, std::int64_t rank, double vtime,
                          double value, double aux) {
  JsonObject e;
  e.emplace("ph", JsonValue(std::string("i")));
  e.emplace("s", JsonValue(std::string("t")));
  emplace_num(e, "pid", static_cast<double>(instant_pid(rank)));
  emplace_num(e, "tid", 0.0);
  emplace_num(e, "ts", vtime * 1e6);
  e.emplace("cat", JsonValue(std::string("monitor")));
  e.emplace("name", JsonValue(std::string(name)));
  JsonObject args;
  emplace_num(args, "vt", vtime);
  if (!std::isnan(value)) emplace_num(args, "value", value);
  if (!std::isnan(aux)) emplace_num(args, "aux", aux);
  e.emplace("args", JsonValue(std::move(args)));
  return JsonValue(std::move(e));
}

}  // namespace

std::string MonitorAccess::build_flight(const Monitor& m, Impl& im) {
  JsonArray events;
  std::uint64_t dropped = 0;
  {
    const MutexLock flight_lock(im.flight_mu);
    for (const auto& [r, ring] : im.flight) {
      const std::string label =
          r == kNoRank ? std::string("host (flight)")
                       : "rank " + std::to_string(r) + " (flight)";
      events.push_back(meta_event(
          r == kNoRank ? kHostPid : kVirtualPidBase + r, label));
    }
    for (const auto& [r, ring] : im.flight) {
      (void)r;
      dropped += ring.total - ring.size;
      const std::size_t cap = ring.ring.size();
      if (cap == 0) continue;
      const std::size_t oldest = (ring.head + cap - ring.size) % cap;
      for (std::size_t i = 0; i < ring.size; ++i) {
        events.push_back(flight_event_json(ring.ring[(oldest + i) % cap]));
      }
    }
  }
  for (const Alert& a : m.alerts_) {
    events.push_back(monitor_instant(alert_kind_name(a.kind), a.rank, a.vtime,
                                     a.value, a.threshold));
  }
  for (const FailureRecord& f : m.failures_) {
    events.push_back(
        monitor_instant("rank_failure", f.rank, f.vtime, kNaN, kNaN));
  }

  JsonObject doc;
  doc.emplace("displayTimeUnit", JsonValue(std::string("ms")));
  doc.emplace("traceEvents", JsonValue(std::move(events)));
  JsonObject other;
  other.emplace("droppedEvents", JsonValue(static_cast<double>(dropped)));
  doc.emplace("otherData", JsonValue(std::move(other)));
  return write_json(JsonValue(std::move(doc)));
}

std::string Monitor::flight_trace_json() const {
  const MutexLock lock(impl_->mu);
  return MonitorAccess::build_flight(*this, *impl_);
}

bool MonitorAccess::write_bundle_locked(const Monitor& m, Impl& im) {
  const MonitorConfig& config_ = m.config_;
  if (config_.bundle_path.empty()) return false;
  // The flight trace goes next to the bundle: x.json -> x.trace.json.
  std::string flight_path = config_.bundle_path;
  const std::string suffix = ".json";
  if (flight_path.size() >= suffix.size() &&
      flight_path.compare(flight_path.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
    flight_path.resize(flight_path.size() - suffix.size());
  }
  flight_path += ".trace.json";
  // Caller holds mu; serialize fully before opening the files so a write
  // failure can't leave a partially-built document behind.
  const std::string bundle = write_json(build_bundle(m, im));
  const std::string flight = build_flight(m, im);
  std::ofstream bf(config_.bundle_path, std::ios::trunc);
  if (!bf) return false;
  bf << bundle << '\n';
  std::ofstream ff(flight_path, std::ios::trunc);
  if (!ff) return false;
  ff << flight << '\n';
  return bf.good() && ff.good();
}

bool Monitor::write_bundle() const {
  const MutexLock lock(impl_->mu);
  return MonitorAccess::write_bundle_locked(*this, *impl_);
}

// ---------------------------------------------------------------------------
// Bundle validation.
// ---------------------------------------------------------------------------

std::vector<std::string> validate_postmortem_json(const JsonValue& doc) {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* msg) {
    if (!ok) errors.emplace_back(msg);
  };
  if (!doc.is_object()) {
    errors.emplace_back("bundle: top level is not an object");
    return errors;
  }
  const JsonValue* schema = doc.find("schema");
  require(schema != nullptr && schema->is_string() &&
              schema->as_string() == kPostmortemSchema,
          "bundle: schema is not deepscale.postmortem.v1");
  const JsonValue* windows = doc.find("windows_closed");
  require(windows != nullptr && windows->is_number(),
          "bundle: windows_closed missing or not a number");
  const JsonValue* trigger = doc.find("trigger");
  require(trigger != nullptr &&
              (trigger->is_null() ||
               (trigger->is_object() && trigger->find("reason") != nullptr &&
                trigger->find("vtime") != nullptr)),
          "bundle: trigger must be null or {reason, rank, vtime}");
  const JsonValue* alerts = doc.find("alerts");
  if (alerts == nullptr || !alerts->is_array()) {
    errors.emplace_back("bundle: alerts missing or not an array");
  } else {
    for (const JsonValue& a : alerts->as_array()) {
      if (!a.is_object() || a.find("kind") == nullptr ||
          a.find("rank") == nullptr || a.find("vtime") == nullptr ||
          a.find("value") == nullptr || a.find("threshold") == nullptr) {
        errors.emplace_back(
            "bundle: alert missing kind/rank/vtime/value/threshold");
        break;
      }
    }
  }
  const JsonValue* failures = doc.find("failures");
  require(failures != nullptr && failures->is_array(),
          "bundle: failures missing or not an array");
  const JsonValue* ranks = doc.find("ranks");
  require(ranks != nullptr && ranks->is_object(),
          "bundle: ranks missing or not an object");
  const JsonValue* series = doc.find("series");
  if (series == nullptr || !series->is_object()) {
    errors.emplace_back("bundle: series missing or not an object");
  } else {
    for (const auto& [name, s] : series->as_object()) {
      if (!s.is_array()) {
        errors.push_back("bundle: series " + name + " is not an array");
        continue;
      }
      for (const JsonValue& sample : s.as_array()) {
        if (!sample.is_array() || sample.as_array().size() != 2) {
          errors.push_back("bundle: series " + name +
                           " sample is not a [t, v] pair");
          break;
        }
      }
    }
  }
  const JsonValue* metricsj = doc.find("metrics");
  require(metricsj != nullptr && metricsj->is_object(),
          "bundle: metrics missing or not an object");
  const JsonValue* flight = doc.find("flight");
  require(flight != nullptr && flight->is_object() &&
              flight->find("ranks") != nullptr,
          "bundle: flight missing or malformed");
  return errors;
}

}  // namespace ds::obs::monitor
