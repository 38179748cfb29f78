// Inference serving front-end (DESIGN.md §12, ROADMAP item 3).
//
// A forward-only server over N model replicas: each replica holds the
// weights of one factory-built `nn::Network` (optionally restored from a
// `nn/serialize` checkpoint) and is pinned to a simulated device whose
// timing comes from `simhw::GpuSystem` (batch copy-in, forward-fraction
// flops + launch overhead, reply copy-out).
// Requests come from an open-loop arrival trace (serve/workload.hpp), flow
// through the dynamic batcher + admission control (serve/batcher.hpp), and
// leave as replies or sheds.
//
// The event loop is a single-threaded discrete-event simulation over VIRTUAL
// time: the event queue is ordered by (time, push sequence), every stochastic
// choice flows through the seeded workload trace, and the model math — the
// real forward passes — never feeds back into timing. The loop only records
// which requests each replica's batches hold. After it drains, the batches
// run on L = min(hardware_lanes(), batches) forward lanes, the calling
// thread among them: networks the server owns, which take batches from one
// shared cursor in (replica, dispatch) order and load a replica's weights
// before running its batches (nn/forward_lanes.hpp). Same seed ⇒ identical
// request outcome sequence, batch assignments, predictions, and per-replica
// trace event sequences (asserted by tests/serve_test.cpp), whichever lane
// runs which batch, exactly like the training runners.
//
// Observability: every request lifecycle emits "serve"-category events on
// the virtual timeline —
//   instant "enqueue"  value=id, aux=absolute deadline       (host rank)
//   instant "shed"     value=id, aux=queue depth at shed      (host rank)
//   instant "dispatch" value=id, aux=batch id       (replica rank, t=start)
//   instant "reply"    value=id, aux=latency s      (replica rank, t=reply)
//   span    "infer_batch"  [dispatch, +service]     (replica rank)
//   span    "reply"        [done, +reply]           (replica rank)
//   instant "scale_up"/"scale_down" value=new active count    (host rank)
// — consumed by analysis::request_lifecycle and the trace_report serving
// section. Latencies land in the process-wide `serve.latency_usec` log2
// histogram; per-run views are Histogram windows, never registry resets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "simhw/gpu_system.hpp"

namespace ds::serve {

/// Reactive replica autoscaler: grow when the queue backs up, shrink after
/// a sustained idle window. Activation is not free — a new replica restores
/// its checkpoint and warms up for activation_delay_s of virtual time, so a
/// burst still pays a reaction latency (the scenario the step/bursty traces
/// probe).
struct AutoscaleConfig {
  bool enabled = false;
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 1;
  std::size_t scale_up_queue_depth = 32;  // queue depth that triggers growth
  double activation_delay_s = 10e-3;      // checkpoint restore + warm-up
  double idle_scale_down_s = 50e-3;       // shrink after this long idle
};

struct ServerConfig {
  std::size_t replicas = 1;  // initial active replicas
  BatchPolicy batch;
  AdmissionConfig admission;
  AutoscaleConfig autoscale;
  /// When set, every replica restores its weights from this checkpoint
  /// (the nn/serialize contract the round-trip test pins).
  std::string checkpoint_path;
  /// Run the real forward passes (default). False = timing-only, for pure
  /// scheduling studies at request rates where the math would dominate.
  bool run_model = true;
};

enum class Outcome : std::uint8_t { kShed, kServed };

struct RequestRecord {
  std::uint64_t id = 0;
  double arrival = 0.0;
  double deadline = 0.0;  // absolute virtual deadline
  Outcome outcome = Outcome::kShed;
  std::int64_t replica = -1;
  std::uint64_t batch_id = 0;
  std::size_t batch_size = 0;
  double dispatch = 0.0;  // batch left the queue
  double done = 0.0;      // compute finished
  double reply = 0.0;     // response fully on the host side
  /// Argmax class of the request's logits (the first maximal one); -1 when
  /// shed or when the server runs timing-only.
  std::int32_t predicted = -1;

  double latency() const { return reply - arrival; }
  bool within_deadline() const {
    return outcome == Outcome::kServed && reply <= deadline;
  }
};

struct ServeResult {
  std::vector<RequestRecord> requests;  // request-id order
  std::size_t served = 0;
  std::size_t shed = 0;
  std::size_t deadline_misses = 0;  // served, but past the deadline
  std::size_t batches = 0;
  double duration_s = 0.0;  // last reply (or last arrival) vtime
  double offered_rps = 0.0;
  double goodput_rps = 0.0;  // served within deadline, per virtual second
  double shed_rate = 0.0;
  double mean_batch = 0.0;
  std::size_t peak_queue_depth = 0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  std::size_t final_replicas = 0;

  /// This run's samples only (window deltas of the process instruments).
  obs::HistogramWindow latency_usec;
  obs::HistogramWindow batch_sizes;

  /// Exact latency quantile in milliseconds over the served requests
  /// (sorted per call — test/bench convenience, not a hot path). q is
  /// clamped to [0, 1]; a NaN q throws ds::Error.
  double latency_quantile_ms(double q) const;

  /// FNV-1a over the per-request outcome sequence (outcome, replica, batch
  /// id, batch size, predicted class) plus the scale-event counts — the
  /// determinism test's fingerprint.
  std::uint64_t outcome_digest() const;
};

class Server {
 public:
  /// The factory builds each replica's network; `device` prices its
  /// compute and transfers. Replica construction happens up front for the
  /// initial replicas and at activation time for autoscaled ones.
  Server(NetworkFactory factory, const GpuSystem& device, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve one arrival trace. Request i's input sample is pool image
  /// (i mod pool.size). Reentrant: each run() resets the virtual clock and
  /// per-run state but keeps the replicas (and their weights) warm. With
  /// run_model, a pool whose sample shape differs from the replicas' input
  /// shape throws ds::Error before any request is processed.
  ServeResult run(const std::vector<double>& arrivals, const Dataset& pool);

  const ServerConfig& config() const { return config_; }
  std::size_t active_replicas() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServerConfig config_;
};

}  // namespace ds::serve
