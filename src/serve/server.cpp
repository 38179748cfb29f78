#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "nn/forward_lanes.hpp"
#include "nn/serialize.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace ds::serve {

namespace {

constexpr const char* kServeCategory = "serve";
constexpr const char* kEnqueueEvent = "enqueue";
constexpr const char* kShedEvent = "shed";
constexpr const char* kDispatchEvent = "dispatch";
constexpr const char* kReplyEvent = "reply";
constexpr const char* kBatchSpan = "infer_batch";
constexpr const char* kReplySpan = "reply";
constexpr const char* kScaleUpEvent = "scale_up";
constexpr const char* kScaleDownEvent = "scale_down";

// Discrete event: (time, push sequence) ordered, smallest first. The push
// sequence both breaks virtual-time ties deterministically and preserves
// FIFO among same-instant events.
struct Event {
  enum Kind : std::uint8_t { kArrival, kTimer, kDone, kActivate };
  double t = 0.0;
  std::uint64_t seq = 0;
  Kind kind = kArrival;
  std::uint64_t payload = 0;  // request index (kArrival) / replica (kDone)
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

double ServeResult::latency_quantile_ms(double q) const {
  DS_CHECK(!std::isnan(q), "latency quantile is NaN");
  std::vector<double> lat;
  lat.reserve(served);
  for (const RequestRecord& r : requests) {
    if (r.outcome == Outcome::kServed) lat.push_back(r.latency());
  }
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  q = std::min(std::max(q, 0.0), 1.0);
  const std::size_t idx = std::min(
      lat.size() - 1, static_cast<std::size_t>(q * static_cast<double>(lat.size())));
  return lat[idx] * 1e3;
}

std::uint64_t ServeResult::outcome_digest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const RequestRecord& r : requests) {
    h = fnv1a(h, static_cast<std::uint64_t>(r.outcome));
    h = fnv1a(h, static_cast<std::uint64_t>(r.replica + 1));
    h = fnv1a(h, r.batch_id);
    h = fnv1a(h, static_cast<std::uint64_t>(r.batch_size));
    h = fnv1a(h, static_cast<std::uint64_t>(r.predicted + 1));
  }
  h = fnv1a(h, scale_ups);
  h = fnv1a(h, scale_downs);
  return h;
}

struct Server::Impl {
  NetworkFactory factory;
  GpuSystem device;  // by value: timing model outlives any caller's copy

  // A replica holds the packed weights its batches are answered with.
  struct Replica {
    std::vector<float> weights;
    bool active = false;
    bool busy = false;
    // This run's batches as request ids, in dispatch order; while the
    // replica is busy, the last one is in flight.
    std::vector<std::vector<std::uint64_t>> batches;
  };
  std::vector<Replica> replicas;
  std::size_t active_count = 0;
  Shape input_shape;  // every network the factory builds takes this
  // Server-owned networks that run the recorded batches (answer()).
  // Lanes and the pool are built on first use and kept warm across runs.
  std::vector<std::unique_ptr<Network>> lanes;
  std::unique_ptr<ThreadPool> forward_pool;

  // Cached instrument references (registration is find-or-create once).
  obs::Counter& requests_ctr = obs::metrics().counter(obs::names::kServeRequests);
  obs::Counter& served_ctr = obs::metrics().counter(obs::names::kServeServed);
  obs::Counter& shed_ctr = obs::metrics().counter(obs::names::kServeShed);
  obs::Counter& miss_ctr =
      obs::metrics().counter(obs::names::kServeDeadlineMiss);
  obs::Counter& scale_ctr =
      obs::metrics().counter(obs::names::kServeScaleEvents);
  obs::Gauge& depth_gauge = obs::metrics().gauge(obs::names::kServeQueueDepth);
  obs::Histogram& latency_hist =
      obs::metrics().histogram(obs::names::kServeLatencyUsec);
  obs::Histogram& batch_hist =
      obs::metrics().histogram(obs::names::kServeBatchSize);

  Impl(NetworkFactory f, const GpuSystem& d) : factory(std::move(f)), device(d) {}

  std::unique_ptr<Network> build_network() {
    std::unique_ptr<Network> net = factory();
    DS_CHECK(net != nullptr && net->finalized(),
             "serve replica factory must return a finalized network");
    input_shape = net->input_shape();
    return net;
  }

  std::vector<float> build_replica(const ServerConfig& config) {
    const std::unique_ptr<Network> net = build_network();
    if (!config.checkpoint_path.empty()) {
      load_checkpoint(*net, config.checkpoint_path);
    }
    std::vector<float> weights(net->param_count());
    net->arena().save_params(weights);
    return weights;
  }

  // Run this run's recorded batches on min(hardware threads, batches)
  // lanes and store each answer's argmax class in its request's
  // `predicted`. The jobs go in (replica, dispatch) order, so a lane
  // reloads weights only when it crosses to another replica's batches.
  void answer(const Dataset& pool, std::vector<RequestRecord>& requests) {
    // Every batch's pool rows, back to back. A request is in at most one
    // batch, so the reserve keeps the jobs' spans valid.
    std::vector<std::size_t> rows;
    rows.reserve(requests.size());
    std::vector<ForwardJob> jobs;
    std::vector<const std::vector<std::uint64_t>*> batches;
    for (const Replica& r : replicas) {
      for (const std::vector<std::uint64_t>& ids : r.batches) {
        for (const std::uint64_t id : ids) rows.push_back(id % pool.size());
        jobs.push_back({r.weights, std::span(rows).last(ids.size())});
        batches.push_back(&ids);
      }
    }
    if (jobs.empty()) return;
    const std::size_t lane_count = worker_threads(jobs.size());
    while (lanes.size() < lane_count) lanes.push_back(build_network());
    if (!forward_pool || forward_pool->size() < lane_count) {
      forward_pool = std::make_unique<ThreadPool>(lane_count);
    }
    run_forwards(forward_pool.get(), lanes, pool, jobs,
                 [&](std::size_t i, const Tensor& logits) {
                   const std::vector<std::uint64_t>& ids = *batches[i];
                   const std::size_t classes = logits.numel() / ids.size();
                   for (std::size_t b = 0; b < ids.size(); ++b) {
                     const float* row = logits.data() + b * classes;
                     requests[ids[b]].predicted = static_cast<std::int32_t>(
                         std::max_element(row, row + classes) - row);
                   }
                 });
  }
};

Server::Server(NetworkFactory factory, const GpuSystem& device,
               ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(factory), device)),
      config_(std::move(config)) {
  DS_CHECK(config_.replicas > 0, "server needs at least one replica");
  DS_CHECK(config_.batch.max_batch > 0, "max_batch must be positive");
  DS_CHECK(config_.batch.max_queue_delay_s >= 0.0,
           "max_queue_delay_s must be non-negative");
  std::size_t ceiling = config_.replicas;
  if (config_.autoscale.enabled) {
    DS_CHECK(config_.autoscale.min_replicas > 0 &&
                 config_.autoscale.min_replicas <=
                     config_.autoscale.max_replicas,
             "autoscale replica bounds are inverted");
    DS_CHECK(config_.replicas >= config_.autoscale.min_replicas &&
                 config_.replicas <= config_.autoscale.max_replicas,
             "initial replicas outside the autoscale bounds");
    ceiling = config_.autoscale.max_replicas;
  }
  impl_->replicas.resize(ceiling);
  for (std::size_t i = 0; i < config_.replicas; ++i) {
    impl_->replicas[i].weights = impl_->build_replica(config_);
    impl_->replicas[i].active = true;
  }
  impl_->active_count = config_.replicas;
}

Server::~Server() = default;

std::size_t Server::active_replicas() const { return impl_->active_count; }

ServeResult Server::run(const std::vector<double>& arrivals,
                        const Dataset& pool) {
  DS_CHECK(pool.size() > 0, "serve request pool is empty");
  Impl& s = *impl_;
  DS_CHECK(!config_.run_model || pool.sample_shape() == s.input_shape,
           "serve request pool samples are "
               << pool.sample_shape().str() << ", replicas expect "
               << s.input_shape.str());
  for (Impl::Replica& replica : s.replicas) replica.batches.clear();
  const BatchPolicy& policy = config_.batch;
  const bool traced = obs::tracing_enabled();

  ServeResult result;
  result.requests.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    RequestRecord& r = result.requests[i];
    r.id = i;
    r.arrival = arrivals[i];
    r.deadline = arrivals[i] + config_.admission.deadline_s;
  }
  const obs::HistogramWindow latency_before = s.latency_hist.window();
  const obs::HistogramWindow batch_before = s.batch_hist.window();

  // Admission estimate inputs: a full batch's service and reply time are
  // fixed by the device model, so precompute them once.
  const double full_service = s.device.data_copy_seconds(policy.max_batch) +
                              s.device.infer_seconds(policy.max_batch);
  const double full_reply = s.device.reply_seconds(policy.max_batch);

  Batcher batcher(policy);
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;
  const auto push_event = [&](double t, Event::Kind kind,
                              std::uint64_t payload) {
    events.push(Event{t, seq++, kind, payload});
  };
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    push_event(arrivals[i], Event::kArrival, i);
  }

  // Per-replica completion time of the in-flight batch.
  std::vector<double> busy_until(s.replicas.size(), 0.0);
  std::uint64_t next_batch_id = 0;
  std::size_t pending_activations = 0;
  double last_dispatch = 0.0;
  double last_event_time = arrivals.empty() ? 0.0 : arrivals.back();

  const auto earliest_free = [&](double now) {
    // Earliest instant some ACTIVE replica is free: now if one is idle,
    // otherwise the soonest in-flight completion.
    double t = -1.0;
    for (std::size_t i = 0; i < s.replicas.size(); ++i) {
      if (!s.replicas[i].active) continue;
      const double free_at = s.replicas[i].busy ? busy_until[i] : now;
      if (t < 0.0 || free_at < t) t = free_at;
    }
    return t < 0.0 ? now : t;
  };

  const auto try_dispatch = [&](double now) {
    for (;;) {
      if (!batcher.should_dispatch(now)) break;
      // Lowest-index free active replica — a deterministic choice.
      std::size_t r = s.replicas.size();
      for (std::size_t i = 0; i < s.replicas.size(); ++i) {
        if (s.replicas[i].active && !s.replicas[i].busy) {
          r = i;
          break;
        }
      }
      if (r == s.replicas.size()) break;  // all busy: dispatch rides on kDone

      std::vector<PendingRequest> batch = batcher.take_batch();
      s.depth_gauge.set(static_cast<std::int64_t>(batcher.depth()));
      obs::monitor::hook_serve_queue(
          now, static_cast<std::int64_t>(batcher.depth()));
      const std::size_t B = batch.size();
      const double service =
          s.device.data_copy_seconds(B) + s.device.infer_seconds(B);
      const std::uint64_t batch_id = next_batch_id++;
      last_dispatch = now;
      s.batch_hist.observe(static_cast<double>(B));
      ++result.batches;

      std::vector<std::uint64_t>& ids = s.replicas[r].batches.emplace_back();
      ids.reserve(B);
      for (const PendingRequest& p : batch) {
        ids.push_back(p.id);
        RequestRecord& rec = result.requests[p.id];
        rec.replica = static_cast<std::int64_t>(r);
        rec.batch_id = batch_id;
        rec.batch_size = B;
        rec.dispatch = now;
        if (traced) {
          obs::instant_v(kServeCategory, kDispatchEvent, now,
                         static_cast<std::int64_t>(r),
                         static_cast<double>(p.id),
                         static_cast<double>(batch_id));
        }
      }
      if (traced) {
        obs::complete_v(kServeCategory, kBatchSpan, now, service,
                        static_cast<std::int64_t>(r),
                        static_cast<double>(B));
      }
      s.replicas[r].busy = true;
      busy_until[r] = now + service;
      push_event(now + service, Event::kDone, r);
    }
    // Partial batch waiting on the delay rule with a free replica: arm the
    // (lazy, re-checked) delay timer.
    if (!batcher.empty() && !batcher.should_dispatch(now)) {
      for (std::size_t i = 0; i < s.replicas.size(); ++i) {
        if (s.replicas[i].active && !s.replicas[i].busy) {
          push_event(batcher.next_deadline(), Event::kTimer, 0);
          break;
        }
      }
    }
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    const double now = ev.t;
    // The event loop is the serve layer's single-threaded virtual clock:
    // events pop in nondecreasing time order, so each tick can close any
    // monitor windows the clock just crossed.
    obs::monitor::hook_tick(now);
    switch (ev.kind) {
      case Event::kArrival: {
        RequestRecord& rec = result.requests[ev.payload];
        s.requests_ctr.add(1);
        bool admitted = true;
        if (config_.admission.enabled) {
          admitted = admission_feasible(
              now, rec.deadline, batcher.depth(), s.active_count,
              earliest_free(now), policy, full_service, full_reply);
        }
        if (!admitted) {
          rec.outcome = Outcome::kShed;
          ++result.shed;
          s.shed_ctr.add(1);
          if (traced) {
            obs::instant_v(kServeCategory, kShedEvent, now, obs::kNoRank,
                           static_cast<double>(rec.id),
                           static_cast<double>(batcher.depth()));
          }
        } else {
          batcher.push(PendingRequest{rec.id, now, rec.deadline});
          s.depth_gauge.set(static_cast<std::int64_t>(batcher.depth()));
          obs::monitor::hook_serve_queue(
              now, static_cast<std::int64_t>(batcher.depth()));
          result.peak_queue_depth =
              std::max(result.peak_queue_depth, batcher.depth());
          if (traced) {
            obs::instant_v(kServeCategory, kEnqueueEvent, now, obs::kNoRank,
                           static_cast<double>(rec.id), rec.deadline);
          }
          // Autoscale up: the queue is deeper than the policy tolerates and
          // headroom remains. The new replica restores its checkpoint and
          // joins after the activation delay.
          if (config_.autoscale.enabled &&
              batcher.depth() > config_.autoscale.scale_up_queue_depth &&
              s.active_count + pending_activations <
                  config_.autoscale.max_replicas) {
            ++pending_activations;
            push_event(now + config_.autoscale.activation_delay_s,
                       Event::kActivate, 0);
          }
        }
        try_dispatch(now);
        break;
      }
      case Event::kTimer:
        try_dispatch(now);
        break;
      case Event::kDone: {
        const std::size_t r = ev.payload;
        const std::vector<std::uint64_t>& inflight =
            s.replicas[r].batches.back();
        const std::size_t B = inflight.size();
        const double reply_t = now + s.device.reply_seconds(B);
        if (traced) {
          obs::complete_v(kServeCategory, kReplySpan, now, reply_t - now,
                          static_cast<std::int64_t>(r),
                          static_cast<double>(B));
        }
        for (const std::uint64_t id : inflight) {
          RequestRecord& rec = result.requests[id];
          rec.outcome = Outcome::kServed;
          rec.done = now;
          rec.reply = reply_t;
          ++result.served;
          s.served_ctr.add(1);
          s.latency_hist.observe(rec.latency() * 1e6);
          if (!rec.within_deadline()) {
            ++result.deadline_misses;
            s.miss_ctr.add(1);
          }
          obs::monitor::hook_serve_reply(reply_t, rec.latency(),
                                         !rec.within_deadline());
          if (traced) {
            obs::instant_v(kServeCategory, kReplyEvent, reply_t,
                           static_cast<std::int64_t>(r),
                           static_cast<double>(rec.id), rec.latency());
          }
        }
        s.replicas[r].busy = false;
        last_event_time = std::max(last_event_time, reply_t);
        // Autoscale down: sustained idle with an empty queue releases the
        // highest-index free replica (weights stay resident for re-use).
        if (config_.autoscale.enabled && batcher.empty() &&
            s.active_count > config_.autoscale.min_replicas &&
            now - last_dispatch >= config_.autoscale.idle_scale_down_s) {
          for (std::size_t i = s.replicas.size(); i-- > 0;) {
            if (s.replicas[i].active && !s.replicas[i].busy) {
              s.replicas[i].active = false;
              --s.active_count;
              ++result.scale_downs;
              s.scale_ctr.add(1);
              if (traced) {
                obs::instant_v(kServeCategory, kScaleDownEvent, now,
                               obs::kNoRank,
                               static_cast<double>(s.active_count), 0.0);
              }
              break;
            }
          }
        }
        try_dispatch(now);
        break;
      }
      case Event::kActivate: {
        --pending_activations;
        if (s.active_count >= config_.autoscale.max_replicas) break;
        std::size_t idx = s.replicas.size();
        for (std::size_t i = 0; i < s.replicas.size(); ++i) {
          if (!s.replicas[i].active) {
            idx = i;
            break;
          }
        }
        if (idx == s.replicas.size()) break;
        if (s.replicas[idx].weights.empty()) {
          s.replicas[idx].weights = s.build_replica(config_);
        }
        s.replicas[idx].active = true;
        ++s.active_count;
        ++result.scale_ups;
        s.scale_ctr.add(1);
        if (traced) {
          obs::instant_v(kServeCategory, kScaleUpEvent, now, obs::kNoRank,
                         static_cast<double>(s.active_count), 0.0);
        }
        try_dispatch(now);
        break;
      }
    }
  }

  DS_CHECK(batcher.empty(),
           "serve event loop drained with requests still queued");
  if (config_.run_model) s.answer(pool, result.requests);
  result.duration_s = last_event_time;
  result.final_replicas = s.active_count;
  result.latency_usec = s.latency_hist.window().since(latency_before);
  result.batch_sizes = s.batch_hist.window().since(batch_before);
  result.mean_batch =
      result.batches > 0
          ? static_cast<double>(result.served) /
                static_cast<double>(result.batches)
          : 0.0;
  if (result.duration_s > 0.0) {
    const double within = static_cast<double>(result.served) -
                          static_cast<double>(result.deadline_misses);
    result.goodput_rps = within / result.duration_s;
    result.offered_rps =
        static_cast<double>(arrivals.size()) / result.duration_s;
  }
  result.shed_rate =
      arrivals.empty() ? 0.0
                       : static_cast<double>(result.shed) /
                             static_cast<double>(arrivals.size());
  s.depth_gauge.set(0);
  obs::monitor::hook_run_finalize(last_event_time);
  return result;
}

}  // namespace ds::serve
