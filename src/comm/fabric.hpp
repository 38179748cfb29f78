// In-process message-passing fabric — the repo's stand-in for MPI.
//
// P ranks, each driven by its own thread, exchange float-vector messages
// through per-destination mailboxes. Every rank carries a *virtual clock*:
// send() charges the sender α + β·bytes on the fabric's link model and
// stamps the message with its arrival time; recv() advances the receiver to
// max(own clock, arrival). The result is a causally-consistent logical-time
// simulation of a cluster: collective schedules (binomial tree vs linear)
// produce exactly the Θ(log P) vs Θ(P) critical paths the paper contrasts,
// without any real network.
//
// Fault injection: a FaultPlan (comm/fault.hpp) can be threaded into the
// fabric at construction. When the plan is active, sends may be dropped and
// retransmitted (charging the sender's clock per attempt), transfers pick up
// jitter, stragglers run slow, and ranks die at scheduled virtual times.
// Every mode runs one path: an inactive plan feeds it neutral values (a
// ×1.0 straggler factor, no jitter, no drops) and draws no random numbers,
// so its clocks are bit-identical to a fault-free run. Blocking receives
// check peer liveness on every wake-up in every mode: a retired or failed
// peer with nothing queued surfaces as RankFailure(kPeerGone). Only an
// active plan adds wall-clock polling and the kTimeout backstop against a
// permanently lost message; without one a slow peer never times out.
// Pinned by CollectiveFaultNeutrality.ZeroPlanClocksMatchNoPlanBitwise and
// Fabric.BlockedRecvSeesAPeerRetireWithoutAPlan.
//
// Protocol observability: every rank carries a Lamport vector clock. send()
// ticks the sender's component and piggybacks a snapshot on the Message;
// recv()/recv_any() merge it (elementwise max) and tick the receiver. When
// tracing is on, each send/recv/wait/timeout/crash/retire is additionally
// narrated as a "proto"-category instant event (obs/proto.hpp) carrying the
// exact message identity (sender, seq), which is what the offline
// happens-before checker in src/check consumes. With tracing off the extra
// cost is the vector-clock bookkeeping itself — a few integer ops per
// message, no allocation beyond the P-entry snapshot, no extra locks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/cost_model.hpp"
#include "comm/fault.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"

namespace ds {

class Fabric {
 public:
  Fabric(std::size_t ranks, LinkModel link);
  Fabric(std::size_t ranks, LinkModel link, FaultPlan faults);

  std::size_t ranks() const { return mailboxes_.size(); }
  const LinkModel& link() const { return link_; }
  const FaultPlan& faults() const { return faults_; }

  // -------------------------------------------------------------------
  // Point-to-point. Called from the owning rank's thread.
  // -------------------------------------------------------------------

  /// Blocking matched send (eager): charges the sender's clock and enqueues.
  /// Under an active FaultPlan the message may be dropped and retransmitted
  /// (each attempt charges transfer + retry_backoff); after
  /// max_send_attempts drops it is lost for good — the receiver's timeout,
  /// not the sender, notices. Throws RankFailure if the sender is past its
  /// scheduled crash time.
  void send(std::size_t src, std::size_t dst, int tag,
            std::vector<float> payload);

  /// Non-blocking DMA-model send — the in-flight half of the bucketed
  /// exchange pipeline (DESIGN.md §10). The sender's clock pays only the
  /// descriptor post (α, the latency term); the β·bytes wire time runs
  /// OFF the sender's clock and lands in the message's arrival stamp, so
  /// backprop continuing on the sender overlaps the transfer. Contrast
  /// send(): the eager path charges the sender the full α + β·bytes inline.
  /// Fault semantics mirror send(): per-attempt α (+ jitter) and
  /// retry_backoff on drops charge the sender; the straggler factor slows
  /// the wire; after max_send_attempts the message is lost for good.
  void send_overlapped(std::size_t src, std::size_t dst, int tag,
                       std::vector<float> payload);

  /// Non-blocking matched receive — the completion poll of an in-flight
  /// exchange. When a (src, tag) message is queued: pops it, advances the
  /// receiver to max(own clock, arrival), narrates wait+recv, fills `out`,
  /// returns true. Otherwise returns false without narrating anything (a
  /// poll that finds nothing is not a protocol event). Under faults a
  /// crashed receiver throws RankFailure(kCrashed); a dead peer just
  /// returns false — callers fall back to the blocking recv() for the
  /// typed failure.
  bool try_recv(std::size_t dst, std::size_t src, int tag,
                std::vector<float>& out);

  /// Blocking receive matching (src, tag); advances the receiver's clock to
  /// the message arrival time. Throws RankFailure(kPeerGone) when src is
  /// dead/retired with no matching message pending. Under an active
  /// FaultPlan it also throws RankFailure(kTimeout) — after charging
  /// recv_timeout virtual seconds — when the wait exhausts max_recv_polls.
  std::vector<float> recv(std::size_t dst, std::size_t src, int tag);

  /// Blocking receive matching the tag from ANY source — the wildcard
  /// service primitive behind the paper's parameter server (§3.1). NOTE:
  /// the service discipline is rotation-fair, not FCFS-by-arrival. Among
  /// the sources with a message queued, the one closest (mod P) to
  /// `any_rotation` — one past the last rank served — wins, regardless of
  /// which message arrived first; messages from one source are still
  /// served in their send order. Plain arrival order always favoured
  /// low-numbered ranks under contention, so fairness deliberately trumps
  /// FCFS here. Returns {source, payload}. Failure semantics as recv(),
  /// with kPeerGone raised once every other rank is dead/retired and
  /// nothing is queued.
  std::pair<std::size_t, std::vector<float>> recv_any(std::size_t dst,
                                                      int tag);

  /// Test/checker hook: overrides the rotation preference in recv_any.
  /// Whenever a wildcard receive finds messages queued, the chooser is
  /// called with the distinct candidate sources in rotation-preference
  /// order (index 0 is what the default policy would serve) and returns
  /// the index to serve — or kChooserWait to keep blocking (used by
  /// check::explore to force a specific interleaving and wait for it).
  /// Called with the destination mailbox lock held; the chooser must not
  /// call back into the fabric. Set before the rank threads start.
  using AnyChooser = std::size_t (*)(void* ctx, std::size_t dst,
                                     const std::size_t* candidates,
                                     std::size_t count);
  static constexpr std::size_t kChooserWait = static_cast<std::size_t>(-1);
  void set_any_chooser(AnyChooser chooser, void* ctx);

  // -------------------------------------------------------------------
  // Virtual clocks.
  // -------------------------------------------------------------------

  double clock(std::size_t rank) const;

  /// Snapshot of `rank`'s Lamport vector clock (entry r counts rank r's
  /// protocol events this rank has causally observed). Safe from any thread;
  /// meaningful for cross-rank comparison once the rank threads have joined.
  std::vector<std::uint64_t> vclock(std::size_t rank) const;

  /// Advance a rank's clock by `seconds` of local work (compute, updates).
  /// Straggler factors multiply `seconds`; crossing the rank's scheduled
  /// crash time marks it dead and throws RankFailure(kCrashed).
  void advance(std::size_t rank, double seconds);

  /// Max clock over all ranks — the experiment's elapsed virtual time.
  double max_clock() const;

  // -------------------------------------------------------------------
  // Rank lifecycle (fault tolerance).
  // -------------------------------------------------------------------

  enum class RankState { kActive, kRetired, kFailed };

  /// Mark a rank as cleanly done (normal exit). Peers blocked on it get
  /// RankFailure(kPeerGone) instead of waiting forever. Idempotent; never
  /// resurrects a failed rank.
  void retire(std::size_t rank);

  /// Mark a rank as dead (crash). Called internally when a rank crosses its
  /// scheduled crash time; algorithms may also call it when abandoning a
  /// rank mid-run so that peers unblock.
  void mark_failed(std::size_t rank);

  RankState state(std::size_t rank) const;
  bool alive(std::size_t rank) const { return state(rank) == RankState::kActive; }

  /// Number of ranks still active.
  std::size_t alive_ranks() const;

  // -------------------------------------------------------------------
  // Collectives (binomial tree). Each rank calls with its own id and its
  // own buffer; all ranks must participate. Under faults, a dead peer in
  // the tree surfaces as RankFailure from the underlying send/recv.
  // -------------------------------------------------------------------

  /// After return every rank's `data` equals root's original `data`.
  void tree_broadcast(std::size_t rank, std::size_t root,
                      std::vector<float>& data);

  /// After return root's `data` holds the elementwise sum over all ranks;
  /// other ranks' buffers are consumed (contents unspecified).
  void tree_reduce(std::size_t rank, std::size_t root,
                   std::vector<float>& data);

  /// reduce-to-root + broadcast: every rank ends with the global sum.
  void tree_allreduce(std::size_t rank, std::size_t root,
                      std::vector<float>& data);

  /// Synchronise clocks: every rank leaves at the max clock of all ranks.
  void barrier(std::size_t rank);

 private:
  struct Message {
    std::size_t src;
    int tag;
    std::vector<float> payload;
    double arrival;
    // Sender's vector clock after the send tick; vclock[src] is the
    // message's seq — its identity in the proto event stream.
    std::vector<std::uint64_t> vclock;
  };

  struct Mailbox {
    Mutex mutex;
    CondVar cv;
    std::deque<Message> messages DS_GUARDED_BY(mutex);
    // Rotation-preference start for recv_any: one past the last source
    // served, so repeated wildcard receives sweep sources round-robin
    // instead of serving whichever message arrived first.
    std::size_t any_rotation DS_GUARDED_BY(mutex) = 0;
    // pop_any's candidate sources, kept to reuse its capacity.
    std::vector<std::size_t> candidates DS_GUARDED_BY(mutex);
  };

  struct ClockSlot {
    mutable Mutex mutex;
    double value DS_GUARDED_BY(mutex) = 0.0;
    // The rank's Lamport vector clock, guarded by the same mutex as the
    // virtual clock (every protocol op already holds it).
    std::vector<std::uint64_t> vclock DS_GUARDED_BY(mutex);
  };

  struct FaultSlot {
    std::atomic<int> state{0};  // RankState as int
    Rng rng;                    // drop/jitter stream; owner-thread only
  };

  /// Throw RankFailure(kCrashed) if `rank` is failed or past its crash time
  /// (marking it failed in passing). No-op when faults are inactive.
  void check_self_alive(std::size_t rank);

  /// Wake every blocked receiver so it can re-evaluate rank liveness.
  void notify_all_mailboxes();

  /// Posting routine of send (eager) and send_overlapped: the attempt,
  /// drop and jitter loop, metrics, narration, loss and enqueue.
  void post(std::size_t src, std::size_t dst, int tag,
            std::vector<float> payload, bool overlapped);

  /// Delivery step of every receive: advance `dst` to the arrival, merge
  /// the vector clock, record and narrate the wait and the recv. `polled`
  /// also narrates the wait a successful try_recv resolved.
  void deliver(std::size_t dst, const Message& msg, bool any, bool polled);

  /// Blocking wait of recv and of recv_any (src == kAnySource): returns the
  /// matched message, or throws RankFailure(kPeerGone) once no sender that
  /// could post it is active and nothing matching is queued. Under an
  /// active plan it polls, checks this rank's crash and times out.
  static constexpr std::size_t kAnySource = static_cast<std::size_t>(-1);
  Message await(std::size_t dst, std::size_t src, int tag);

  /// Pop the oldest message from `src` matching `tag`, or nothing.
  static bool pop(Mailbox& box, std::size_t src, int tag, Message& out)
      DS_REQUIRES(box.mutex);

  /// Pop the rotation-preferred (or chooser-selected) message matching
  /// `tag`, or nothing. Callers hold the mailbox lock; the chooser hook
  /// runs under it (see set_any_chooser's re-entrancy contract).
  bool pop_any(std::size_t dst, Mailbox& box, int tag, Message& out)
      DS_REQUIRES(box.mutex);

  LinkModel link_;
  FaultPlan faults_;
  bool faults_on_ = false;
  AnyChooser any_chooser_ = nullptr;
  void* any_chooser_ctx_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<ClockSlot>> clocks_;
  std::vector<std::unique_ptr<FaultSlot>> slots_;
};

}  // namespace ds
