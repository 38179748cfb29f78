// Dynamic batcher + admission control for the serving front-end.
//
// The batcher is the pure decision core of the server (DESIGN.md §12): a
// FIFO of admitted-but-undispatched requests plus the two dispatch rules
// and the deadline-feasibility admission rule. It knows nothing about
// events, replicas, or tracing — the Server drives it with virtual times —
// which is what makes the state machine unit-testable in isolation.
//
// Dispatch rules (a batch leaves when a replica is free AND):
//   size rule   — the queue holds a full policy.max_batch, or
//   delay rule  — the oldest queued request has waited policy.
//                 max_queue_delay_s (partial batches ship rather than
//                 starving under light load).
//
// Admission rule (shed-on-arrival, open-loop overload protection): estimate
// the request's completion time assuming every queued request ahead of it
// ships in full batches spread across the active replicas, and shed iff the
// estimate busts the request's absolute deadline. Shedding at arrival keeps
// the queue depth deadline-feasible by construction: admitted requests are
// never evicted later, so under 2× overload the queue stays bounded and the
// p99 of *admitted* requests stays inside the deadline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace ds::serve {

struct BatchPolicy {
  std::size_t max_batch = 8;        // coalesce at most this many requests
  double max_queue_delay_s = 2e-3;  // oldest request waits at most this
};

struct AdmissionConfig {
  bool enabled = true;
  double deadline_s = 20e-3;  // per-request completion budget from arrival
};

/// One admitted, undispatched request.
struct PendingRequest {
  std::uint64_t id = 0;
  double arrival = 0.0;   // virtual seconds
  double deadline = 0.0;  // absolute virtual deadline (arrival + budget)
};

class Batcher {
 public:
  explicit Batcher(BatchPolicy policy) : policy_(policy) {}

  const BatchPolicy& policy() const { return policy_; }

  void push(PendingRequest r) { queue_.push_back(r); }

  std::size_t depth() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  /// True when a batch should leave NOW (given a free replica): the size
  /// rule or the delay rule fires.
  bool should_dispatch(double now) const {
    if (queue_.empty()) return false;
    if (queue_.size() >= policy_.max_batch) return true;
    return now >= queue_.front().arrival + policy_.max_queue_delay_s;
  }

  /// When the queue is non-empty but not yet dispatchable, the virtual time
  /// at which the delay rule will trip for the current head.
  double next_deadline() const {
    return queue_.front().arrival + policy_.max_queue_delay_s;
  }

  /// Pop the next batch (up to max_batch requests, FIFO order).
  std::vector<PendingRequest> take_batch() {
    std::vector<PendingRequest> batch;
    const std::size_t n =
        queue_.size() < policy_.max_batch ? queue_.size() : policy_.max_batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(queue_.front());
      queue_.pop_front();
    }
    return batch;
  }

 private:
  BatchPolicy policy_;
  std::deque<PendingRequest> queue_;
};

/// The deadline-feasibility admission estimate for a request arriving at
/// `now` with absolute deadline `deadline`:
///
///   batches_ahead = ceil((queued_ahead + 1) / max_batch)   — this request
///                   rides in the last of them;
///   est_done      = now + max(0, earliest_free − now)       — wait for a
///                 + batches_ahead · full_batch_service_s      replica,
///                     / active_replicas                     — drain ahead,
///                 + reply_s                                 — ship the
///                                                             response.
///
/// Returns true (admit) iff est_done ≤ deadline. Deliberately conservative:
/// partial batches ahead are costed as full ones, so the rule sheds a
/// little early rather than admitting requests it will serve late.
bool admission_feasible(double now, double deadline, std::size_t queued_ahead,
                        std::size_t active_replicas, double earliest_free,
                        const BatchPolicy& policy, double full_batch_service_s,
                        double reply_s);

}  // namespace ds::serve
