#include "comm/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/proto.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace ds {
namespace {

constexpr int kBarrierTag = -7771;

/// Fabric instruments, resolved once. Metrics are always on (relaxed
/// atomics); trace events additionally gate on obs::tracing_enabled().
struct FabricMetrics {
  obs::Counter& messages_sent =
      obs::metrics().counter(obs::names::kFabricMessagesSent);
  obs::Counter& bytes_sent =
      obs::metrics().counter(obs::names::kFabricBytesSent);
  obs::Counter& drops = obs::metrics().counter(obs::names::kFabricDrops);
  obs::Counter& retransmits =
      obs::metrics().counter(obs::names::kFabricRetransmits);
  obs::Counter& messages_lost =
      obs::metrics().counter(obs::names::kFabricMessagesLost);
  obs::Counter& timeouts = obs::metrics().counter(obs::names::kFabricTimeouts);
  obs::AccumDouble& recv_wait =
      obs::metrics().accum(obs::names::kFabricRecvWaitSeconds);
  obs::Histogram& message_bytes =
      obs::metrics().histogram(obs::names::kFabricMessageBytes);
};

FabricMetrics& fabric_metrics() {
  static FabricMetrics m;
  return m;
}

constexpr int kActive = static_cast<int>(Fabric::RankState::kActive);
constexpr int kRetired = static_cast<int>(Fabric::RankState::kRetired);
constexpr int kFailed = static_cast<int>(Fabric::RankState::kFailed);

std::string describe(std::size_t rank, const char* what) {
  std::ostringstream os;
  os << "rank " << rank << ": " << what;
  return os.str();
}

/// Receiver-side vector-clock update: elementwise max with the piggybacked
/// snapshot, then tick the receiver's own component. Caller holds the
/// receiver's clock mutex.
void merge_vclock(std::vector<std::uint64_t>& own,
                  const std::vector<std::uint64_t>& incoming,
                  std::size_t self) {
  for (std::size_t i = 0; i < own.size(); ++i) {
    own[i] = std::max(own[i], incoming[i]);
  }
  ++own[self];
}

}  // namespace

Fabric::Fabric(std::size_t ranks, LinkModel link)
    : Fabric(ranks, std::move(link), FaultPlan::none()) {}

Fabric::Fabric(std::size_t ranks, LinkModel link, FaultPlan faults)
    : link_(std::move(link)),
      faults_(std::move(faults)),
      faults_on_(faults_.active()) {
  DS_CHECK(ranks > 0, "fabric needs at least one rank");
  mailboxes_.reserve(ranks);
  clocks_.reserve(ranks);
  slots_.reserve(ranks);
  Rng base(faults_.seed);
  for (std::size_t i = 0; i < ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    clocks_.push_back(std::make_unique<ClockSlot>());
    clocks_.back()->vclock.assign(ranks, 0);
    slots_.push_back(std::make_unique<FaultSlot>());
    slots_.back()->rng = base.fork(i);
  }
}

void Fabric::set_any_chooser(AnyChooser chooser, void* ctx) {
  any_chooser_ = chooser;
  any_chooser_ctx_ = ctx;
}

void Fabric::check_self_alive(std::size_t rank) {
  if (!faults_on_) return;
  if (slots_[rank]->state.load(std::memory_order_acquire) == kFailed) {
    throw RankFailure(rank, RankFailure::Kind::kCrashed,
                      describe(rank, "already crashed"));
  }
  const double crash = faults_.crash_time(rank);
  if (crash == kNeverCrashes) return;
  double now = 0.0;
  {
    const MutexLock lock(clocks_[rank]->mutex);
    now = clocks_[rank]->value;
  }
  if (now >= crash) {
    mark_failed(rank);
    throw RankFailure(rank, RankFailure::Kind::kCrashed,
                      describe(rank, "crossed scheduled crash time"));
  }
}

void Fabric::notify_all_mailboxes() {
  for (auto& box : mailboxes_) {
    {
      const MutexLock lock(box->mutex);
    }
    box->cv.notify_all();
  }
}

void Fabric::retire(std::size_t rank) {
  DS_CHECK(rank < ranks(), "retire rank out of range");
  int expected = kActive;
  if (slots_[rank]->state.compare_exchange_strong(expected, kRetired)) {
    obs::proto::emit_retire(static_cast<std::int64_t>(rank), clock(rank));
    notify_all_mailboxes();
  }
}

void Fabric::mark_failed(std::size_t rank) {
  DS_CHECK(rank < ranks(), "mark_failed rank out of range");
  if (slots_[rank]->state.exchange(kFailed) != kFailed) {
    obs::proto::emit_crash(static_cast<std::int64_t>(rank), clock(rank));
    notify_all_mailboxes();
  }
}

Fabric::RankState Fabric::state(std::size_t rank) const {
  DS_CHECK(rank < ranks(), "state rank out of range");
  return static_cast<RankState>(
      slots_[rank]->state.load(std::memory_order_acquire));
}

std::size_t Fabric::alive_ranks() const {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot->state.load(std::memory_order_acquire) == kActive) ++n;
  }
  return n;
}

void Fabric::send(std::size_t src, std::size_t dst, int tag,
                  std::vector<float> payload) {
  DS_CHECK(src < ranks() && dst < ranks(), "send rank out of range");
  DS_CHECK(src != dst, "self-send is a bug in the calling schedule");
  if (faults_on_) {
    faulty_send(src, dst, tag, std::move(payload));
    return;
  }
  const double bytes = static_cast<double>(payload.size() * sizeof(float));
  const double cost = link_.transfer_seconds(bytes);
  double arrival = 0.0;
  std::vector<std::uint64_t> vclock;
  {
    const MutexLock lock(clocks_[src]->mutex);
    clocks_[src]->value += cost;
    arrival = clocks_[src]->value;
    ++clocks_[src]->vclock[src];
    vclock = clocks_[src]->vclock;
  }
  const std::uint64_t seq = vclock[src];
  FabricMetrics& fm = fabric_metrics();
  fm.messages_sent.add();
  fm.bytes_sent.add(static_cast<std::uint64_t>(bytes));
  fm.message_bytes.observe(bytes);
  obs::complete_v("fabric", "send", arrival - cost, cost,
                  static_cast<std::int64_t>(src), bytes);
  obs::proto::emit_send(static_cast<std::int64_t>(src), arrival, seq,
                        static_cast<std::int64_t>(dst), tag);
  Mailbox& box = *mailboxes_[dst];
  {
    const MutexLock lock(box.mutex);
    box.messages.push_back(
        Message{src, tag, std::move(payload), arrival, std::move(vclock)});
  }
  box.cv.notify_all();
}

void Fabric::faulty_send(std::size_t src, std::size_t dst, int tag,
                         std::vector<float> payload) {
  check_self_alive(src);
  const double bytes = static_cast<double>(payload.size() * sizeof(float));
  const double base =
      link_.transfer_seconds(bytes) * faults_.straggler_for(src);
  const double drop = faults_.drop_probability;
  const std::size_t attempts = std::max<std::size_t>(1, faults_.max_send_attempts);

  Rng& rng = slots_[src]->rng;  // owner-thread only: sends are rank-serial
  double arrival = 0.0;
  bool delivered = false;
  double send_begin = 0.0;
  double send_end = 0.0;
  std::size_t attempts_used = 0;
  std::size_t drop_count = 0;
  // Drop timestamps for trace instants, captured inside the clock lock and
  // emitted after it (appending an event may allocate a segment).
  constexpr std::size_t kMaxDropStamps = 8;
  double drop_vtimes[kMaxDropStamps];
  std::vector<std::uint64_t> vclock;
  {
    const MutexLock lock(clocks_[src]->mutex);
    send_begin = clocks_[src]->value;
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
      ++attempts_used;
      double cost = base;
      if (faults_.jitter > 0.0) cost *= 1.0 + faults_.jitter * rng.uniform();
      clocks_[src]->value += cost;
      if (drop > 0.0 && rng.uniform() < drop) {
        // Dropped on the wire: the sender's ack timeout pays the backoff,
        // then the loop retransmits.
        if (drop_count < kMaxDropStamps) {
          drop_vtimes[drop_count] = clocks_[src]->value;
        }
        ++drop_count;
        clocks_[src]->value += faults_.retry_backoff;
        continue;
      }
      arrival = clocks_[src]->value;
      delivered = true;
      break;
    }
    send_end = clocks_[src]->value;
    // One vector-clock tick per logical message, delivered or not — the
    // receiver-side checker pairs a "lost" narration with this seq.
    ++clocks_[src]->vclock[src];
    vclock = clocks_[src]->vclock;
  }
  const std::uint64_t seq = vclock[src];
  FabricMetrics& fm = fabric_metrics();
  fm.messages_sent.add();
  fm.bytes_sent.add(
      static_cast<std::uint64_t>(bytes * static_cast<double>(attempts_used)));
  fm.message_bytes.observe(bytes);
  if (drop_count > 0) fm.drops.add(drop_count);
  if (attempts_used > 1) {
    fm.retransmits.add(attempts_used - 1);
    // Window-attributed per-sender retransmit feed for the online
    // retransmit-storm detector (deterministic: sender clock stamp).
    obs::monitor::hook_retransmit(static_cast<std::int64_t>(src), send_end,
                                  attempts_used - 1);
  }
  if (obs::tracing_enabled()) {
    for (std::size_t i = 0; i < std::min(drop_count, kMaxDropStamps); ++i) {
      obs::instant_at("fabric", "drop", drop_vtimes[i],
                      static_cast<std::int64_t>(src));
    }
    obs::complete_v("fabric", "send", send_begin, send_end - send_begin,
                    static_cast<std::int64_t>(src), bytes);
    obs::proto::emit_send(static_cast<std::int64_t>(src), send_end, seq,
                          static_cast<std::int64_t>(dst), tag);
  }
  // Lost after every retransmit: the message silently vanishes — eager
  // sends cannot report this; the receiver's timeout is the backstop.
  if (!delivered) {
    fm.messages_lost.add();
    obs::instant_at("fabric", "lost", send_end,
                    static_cast<std::int64_t>(src));
    obs::proto::emit_lost(static_cast<std::int64_t>(src), send_end, seq,
                          static_cast<std::int64_t>(dst), tag);
    return;
  }

  Mailbox& box = *mailboxes_[dst];
  {
    const MutexLock lock(box.mutex);
    box.messages.push_back(
        Message{src, tag, std::move(payload), arrival, std::move(vclock)});
  }
  box.cv.notify_all();
}

void Fabric::send_overlapped(std::size_t src, std::size_t dst, int tag,
                             std::vector<float> payload) {
  DS_CHECK(src < ranks() && dst < ranks(), "send rank out of range");
  DS_CHECK(src != dst, "self-send is a bug in the calling schedule");
  if (faults_on_) check_self_alive(src);
  const double bytes = static_cast<double>(payload.size() * sizeof(float));
  const double straggle = faults_on_ ? faults_.straggler_for(src) : 1.0;
  const double wire = link_.beta * bytes * straggle;

  Rng* rng = faults_on_ ? &slots_[src]->rng : nullptr;
  const double drop = faults_on_ ? faults_.drop_probability : 0.0;
  const std::size_t attempts =
      faults_on_ ? std::max<std::size_t>(1, faults_.max_send_attempts) : 1;

  double arrival = 0.0;
  bool delivered = false;
  double post_begin = 0.0;
  double post_end = 0.0;
  std::size_t attempts_used = 0;
  std::size_t drop_count = 0;
  constexpr std::size_t kMaxDropStamps = 8;
  double drop_vtimes[kMaxDropStamps];
  std::vector<std::uint64_t> vclock;
  {
    const MutexLock lock(clocks_[src]->mutex);
    post_begin = clocks_[src]->value;
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
      ++attempts_used;
      // The sender only pays the descriptor post; the DMA engine owns the
      // β·bytes transfer.
      double alpha = link_.alpha * straggle;
      double transfer = wire;
      if (rng != nullptr && faults_.jitter > 0.0) {
        const double j = 1.0 + faults_.jitter * rng->uniform();
        alpha *= j;
        transfer *= j;
      }
      clocks_[src]->value += alpha;
      if (drop > 0.0 && rng->uniform() < drop) {
        if (drop_count < kMaxDropStamps) {
          drop_vtimes[drop_count] = clocks_[src]->value;
        }
        ++drop_count;
        clocks_[src]->value += faults_.retry_backoff;
        continue;
      }
      arrival = clocks_[src]->value + transfer;
      delivered = true;
      break;
    }
    post_end = clocks_[src]->value;
    ++clocks_[src]->vclock[src];
    vclock = clocks_[src]->vclock;
  }
  const std::uint64_t seq = vclock[src];
  FabricMetrics& fm = fabric_metrics();
  fm.messages_sent.add();
  fm.bytes_sent.add(
      static_cast<std::uint64_t>(bytes * static_cast<double>(attempts_used)));
  fm.message_bytes.observe(bytes);
  if (drop_count > 0) fm.drops.add(drop_count);
  if (attempts_used > 1) {
    fm.retransmits.add(attempts_used - 1);
    obs::monitor::hook_retransmit(static_cast<std::int64_t>(src), post_end,
                                  attempts_used - 1);
  }
  if (obs::tracing_enabled()) {
    for (std::size_t i = 0; i < std::min(drop_count, kMaxDropStamps); ++i) {
      obs::instant_at("fabric", "drop", drop_vtimes[i],
                      static_cast<std::int64_t>(src));
    }
    obs::complete_v("fabric", "send_overlapped", post_begin,
                    post_end - post_begin, static_cast<std::int64_t>(src),
                    bytes);
    obs::proto::emit_send(static_cast<std::int64_t>(src), post_end, seq,
                          static_cast<std::int64_t>(dst), tag);
  }
  if (!delivered) {
    fm.messages_lost.add();
    obs::instant_at("fabric", "lost", post_end,
                    static_cast<std::int64_t>(src));
    obs::proto::emit_lost(static_cast<std::int64_t>(src), post_end, seq,
                          static_cast<std::int64_t>(dst), tag);
    return;
  }

  Mailbox& box = *mailboxes_[dst];
  {
    const MutexLock lock(box.mutex);
    box.messages.push_back(
        Message{src, tag, std::move(payload), arrival, std::move(vclock)});
  }
  box.cv.notify_all();
}

bool Fabric::try_recv(std::size_t dst, std::size_t src, int tag,
                      std::vector<float>& out) {
  DS_CHECK(src < ranks() && dst < ranks(), "try_recv rank out of range");
  if (faults_on_) check_self_alive(dst);
  Mailbox& box = *mailboxes_[dst];
  Message msg;
  {
    const MutexLock lock(box.mutex);
    const auto it = std::find_if(
        box.messages.begin(), box.messages.end(), [&](const Message& m) {
          return m.src == src && m.tag == tag;
        });
    if (it == box.messages.end()) return false;
    msg = std::move(*it);
    box.messages.erase(it);
  }
  const std::uint64_t seq = msg.vclock[msg.src];
  double wait = 0.0;
  double wait_begin = 0.0;
  double now = 0.0;
  {
    const MutexLock clock_lock(clocks_[dst]->mutex);
    wait_begin = clocks_[dst]->value;
    clocks_[dst]->value = std::max(clocks_[dst]->value, msg.arrival);
    wait = clocks_[dst]->value - wait_begin;
    now = clocks_[dst]->value;
    merge_vclock(clocks_[dst]->vclock, msg.vclock, dst);
  }
  fabric_metrics().recv_wait.add(wait);
  if (wait > 0.0) {
    obs::complete_v("fabric", "recv_wait", wait_begin, wait,
                    static_cast<std::int64_t>(dst));
  }
  // A successful poll narrates the wait at its (instantly satisfied) post
  // and the recv it resolved into; an empty poll narrated nothing above.
  if (obs::tracing_enabled()) {
    obs::proto::emit_wait(static_cast<std::int64_t>(dst), wait_begin,
                          static_cast<std::int64_t>(src), tag,
                          /*any=*/false);
  }
  obs::proto::emit_recv(static_cast<std::int64_t>(dst), now, seq,
                        static_cast<std::int64_t>(src), tag,
                        /*any=*/false);
  out = std::move(msg.payload);
  return true;
}

std::vector<float> Fabric::recv(std::size_t dst, std::size_t src, int tag) {
  DS_CHECK(src < ranks() && dst < ranks(), "recv rank out of range");
  // Narrate the wait at POST time, unconditionally: whether the message has
  // physically arrived yet is a wall-clock race, and the traced virtual
  // event sequence must be schedule-independent (determinism_test).
  if (obs::tracing_enabled()) {
    obs::proto::emit_wait(static_cast<std::int64_t>(dst), clock(dst),
                          static_cast<std::int64_t>(src), tag,
                          /*any=*/false);
  }
  Mailbox& box = *mailboxes_[dst];
  UniqueLock lock(box.mutex);
  std::size_t polls = 0;
  for (;;) {
    const auto it = std::find_if(
        box.messages.begin(), box.messages.end(), [&](const Message& m) {
          return m.src == src && m.tag == tag;
        });
    if (it != box.messages.end()) {
      Message msg = std::move(*it);
      box.messages.erase(it);
      lock.unlock();
      const std::uint64_t seq = msg.vclock[msg.src];
      double wait = 0.0;
      double wait_begin = 0.0;
      double now = 0.0;
      {
        const MutexLock clock_lock(clocks_[dst]->mutex);
        wait_begin = clocks_[dst]->value;
        clocks_[dst]->value = std::max(clocks_[dst]->value, msg.arrival);
        wait = clocks_[dst]->value - wait_begin;
        now = clocks_[dst]->value;
        merge_vclock(clocks_[dst]->vclock, msg.vclock, dst);
      }
      fabric_metrics().recv_wait.add(wait);
      if (wait > 0.0) {
        obs::complete_v("fabric", "recv_wait", wait_begin, wait,
                        static_cast<std::int64_t>(dst));
      }
      obs::proto::emit_recv(static_cast<std::int64_t>(dst), now, seq,
                            static_cast<std::int64_t>(src), tag,
                            /*any=*/false);
      return std::move(msg.payload);
    }
    if (!faults_on_) {
      box.cv.wait(lock);
      continue;
    }
    // Faulty mode: poll instead of waiting forever, so that dead peers and
    // lost messages surface as typed failures rather than deadlocks.
    if (slots_[src]->state.load(std::memory_order_acquire) != kActive) {
      lock.unlock();
      throw RankFailure(src, RankFailure::Kind::kPeerGone,
                        describe(src, "peer gone with no matching message"));
    }
    lock.unlock();
    check_self_alive(dst);
    if (polls >= faults_.max_recv_polls) {
      double timeout_at = 0.0;
      {
        const MutexLock clock_lock(clocks_[dst]->mutex);
        clocks_[dst]->value += faults_.recv_timeout;
        timeout_at = clocks_[dst]->value;
      }
      fabric_metrics().timeouts.add();
      obs::instant_at("fabric", "timeout", timeout_at,
                      static_cast<std::int64_t>(dst));
      obs::proto::emit_timeout(static_cast<std::int64_t>(dst), timeout_at,
                               static_cast<std::int64_t>(src), tag,
                               /*any=*/false);
      throw RankFailure(src, RankFailure::Kind::kTimeout,
                        describe(dst, "recv timed out — message lost"));
    }
    lock.lock();
    if (box.cv.wait_for(lock, std::chrono::duration<double>(
                                  faults_.recv_poll_seconds)) ==
        std::cv_status::timeout) {
      ++polls;
    }
  }
}

bool Fabric::pop_any(std::size_t dst, Mailbox& box, int tag, Message& out) {
  const std::size_t p = ranks();
  if (any_chooser_ == nullptr) {
    auto best = box.messages.end();
    std::size_t best_key = p;
    for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
      if (it->tag != tag) continue;
      // Distance from the rotation start; strict < keeps per-sender FIFO.
      const std::size_t key = (it->src + p - box.any_rotation) % p;
      if (best == box.messages.end() || key < best_key) {
        best_key = key;
        best = it;
      }
    }
    if (best == box.messages.end()) return false;
    out = std::move(*best);
    box.messages.erase(best);
    box.any_rotation = (out.src + 1) % p;
    return true;
  }
  // Chooser path (check::explore): present the distinct candidate sources
  // in rotation-preference order and let the hook pick the interleaving.
  std::vector<std::size_t> candidates;
  for (const Message& m : box.messages) {
    if (m.tag != tag) continue;
    if (std::find(candidates.begin(), candidates.end(), m.src) ==
        candidates.end()) {
      candidates.push_back(m.src);
    }
  }
  if (candidates.empty()) return false;
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              return (a + p - box.any_rotation) % p <
                     (b + p - box.any_rotation) % p;
            });
  const std::size_t pick = any_chooser_(any_chooser_ctx_, dst,
                                        candidates.data(), candidates.size());
  if (pick == kChooserWait) return false;
  DS_CHECK(pick < candidates.size(), "any chooser index out of range");
  const std::size_t src = candidates[pick];
  const auto it = std::find_if(
      box.messages.begin(), box.messages.end(),
      [&](const Message& m) { return m.src == src && m.tag == tag; });
  out = std::move(*it);
  box.messages.erase(it);
  box.any_rotation = (src + 1) % p;
  return true;
}

std::pair<std::size_t, std::vector<float>> Fabric::recv_any(std::size_t dst,
                                                            int tag) {
  DS_CHECK(dst < ranks(), "recv_any rank out of range");
  // Post-time narration, same determinism argument as recv().
  if (obs::tracing_enabled()) {
    obs::proto::emit_wait(static_cast<std::int64_t>(dst), clock(dst),
                          /*src=*/0, tag, /*any=*/true);
  }
  Mailbox& box = *mailboxes_[dst];
  UniqueLock lock(box.mutex);
  std::size_t polls = 0;
  for (;;) {
    Message msg;
    if (pop_any(dst, box, tag, msg)) {
      lock.unlock();
      const std::uint64_t seq = msg.vclock[msg.src];
      double wait = 0.0;
      double wait_begin = 0.0;
      double now = 0.0;
      {
        const MutexLock clock_lock(clocks_[dst]->mutex);
        wait_begin = clocks_[dst]->value;
        clocks_[dst]->value = std::max(clocks_[dst]->value, msg.arrival);
        wait = clocks_[dst]->value - wait_begin;
        now = clocks_[dst]->value;
        merge_vclock(clocks_[dst]->vclock, msg.vclock, dst);
      }
      fabric_metrics().recv_wait.add(wait);
      if (wait > 0.0) {
        obs::complete_v("fabric", "recv_wait", wait_begin, wait,
                        static_cast<std::int64_t>(dst));
      }
      obs::proto::emit_recv(static_cast<std::int64_t>(dst), now, seq,
                            static_cast<std::int64_t>(msg.src), tag,
                            /*any=*/true);
      return {msg.src, std::move(msg.payload)};
    }
    if (!faults_on_) {
      box.cv.wait(lock);
      continue;
    }
    bool any_sender_alive = false;
    for (std::size_t r = 0; r < ranks(); ++r) {
      if (r != dst &&
          slots_[r]->state.load(std::memory_order_acquire) == kActive) {
        any_sender_alive = true;
        break;
      }
    }
    // A matching message may be queued even though pop_any declined to
    // serve it (an any-chooser stalling for candidate discovery). Senders
    // being gone is then irrelevant: the receive can still complete.
    bool matching_queued = false;
    for (const Message& m : box.messages) {
      if (m.tag == tag) {
        matching_queued = true;
        break;
      }
    }
    if (!any_sender_alive && !matching_queued) {
      lock.unlock();
      throw RankFailure(dst, RankFailure::Kind::kPeerGone,
                        describe(dst, "no active senders remain"));
    }
    lock.unlock();
    check_self_alive(dst);
    if (polls >= faults_.max_recv_polls) {
      double timeout_at = 0.0;
      {
        const MutexLock clock_lock(clocks_[dst]->mutex);
        clocks_[dst]->value += faults_.recv_timeout;
        timeout_at = clocks_[dst]->value;
      }
      fabric_metrics().timeouts.add();
      obs::instant_at("fabric", "timeout", timeout_at,
                      static_cast<std::int64_t>(dst));
      obs::proto::emit_timeout(static_cast<std::int64_t>(dst), timeout_at,
                               /*src=*/0, tag, /*any=*/true);
      throw RankFailure(dst, RankFailure::Kind::kTimeout,
                        describe(dst, "recv_any timed out"));
    }
    lock.lock();
    if (box.cv.wait_for(lock, std::chrono::duration<double>(
                                  faults_.recv_poll_seconds)) ==
        std::cv_status::timeout) {
      ++polls;
    }
  }
}

double Fabric::clock(std::size_t rank) const {
  DS_CHECK(rank < ranks(), "clock rank out of range");
  const MutexLock lock(clocks_[rank]->mutex);
  return clocks_[rank]->value;
}

std::vector<std::uint64_t> Fabric::vclock(std::size_t rank) const {
  DS_CHECK(rank < ranks(), "vclock rank out of range");
  const MutexLock lock(clocks_[rank]->mutex);
  return clocks_[rank]->vclock;
}

void Fabric::advance(std::size_t rank, double seconds) {
  DS_CHECK(rank < ranks(), "advance rank out of range");
  DS_CHECK(seconds >= 0.0, "cannot advance clock backwards");
  if (!faults_on_) {
    const MutexLock lock(clocks_[rank]->mutex);
    clocks_[rank]->value += seconds;
    return;
  }
  check_self_alive(rank);
  const double slowed = seconds * faults_.straggler_for(rank);
  const double crash = faults_.crash_time(rank);
  bool crashed = false;
  {
    const MutexLock lock(clocks_[rank]->mutex);
    clocks_[rank]->value += slowed;
    crashed = clocks_[rank]->value >= crash;
  }
  if (crashed) {
    mark_failed(rank);
    throw RankFailure(rank, RankFailure::Kind::kCrashed,
                      describe(rank, "crashed during local work"));
  }
}

double Fabric::max_clock() const {
  double m = 0.0;
  for (std::size_t r = 0; r < ranks(); ++r) m = std::max(m, clock(r));
  return m;
}

void Fabric::tree_broadcast(std::size_t rank, std::size_t root,
                            std::vector<float>& data) {
  const std::size_t p = ranks();
  if (p == 1) return;
  obs::SpanGuard span("collective", "tree_broadcast");
  if (span.active() && rank == root) {
    // Annotate the root's span with the α-β modeled critical path, so the
    // trace can compare modeled vs recorded collective time.
    span.set_value(collective_seconds(
        CollectiveAlgo::kBinomialTree, p,
        static_cast<double>(data.size() * sizeof(float)), link_));
  }
  const std::size_t relative = (rank + p - root) % p;
  // Receive phase: find the bit that names our parent.
  std::size_t mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const std::size_t src = (relative - mask + root) % p;
      data = recv(rank, src, kBarrierTag - 1);
      break;
    }
    mask <<= 1;
  }
  // Send phase: forward to children below the parent bit.
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p && (relative & (mask - 1)) == 0 &&
        (relative & mask) == 0) {
      const std::size_t dst = (relative + mask + root) % p;
      send(rank, dst, kBarrierTag - 1, data);
    }
    mask >>= 1;
  }
}

void Fabric::tree_reduce(std::size_t rank, std::size_t root,
                         std::vector<float>& data) {
  const std::size_t p = ranks();
  if (p == 1) return;
  obs::SpanGuard span("collective", "tree_reduce");
  if (span.active()) {
    span.set_value(collective_seconds(
        CollectiveAlgo::kBinomialTree, p,
        static_cast<double>(data.size() * sizeof(float)), link_));
  }
  const std::size_t relative = (rank + p - root) % p;
  std::size_t mask = 1;
  while (mask < p) {
    if ((relative & mask) == 0) {
      const std::size_t source = relative | mask;
      if (source < p) {
        const std::size_t src = (source + root) % p;
        const std::vector<float> incoming = recv(rank, src, kBarrierTag - 2);
        DS_CHECK(incoming.size() == data.size(), "reduce size mismatch");
        for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
      }
    } else {
      const std::size_t dst = ((relative & ~mask) + root) % p;
      send(rank, dst, kBarrierTag - 2, std::move(data));
      data.clear();
      return;
    }
    mask <<= 1;
  }
}

void Fabric::tree_allreduce(std::size_t rank, std::size_t root,
                            std::vector<float>& data) {
  const std::size_t n = data.size();
  obs::SpanGuard span("collective", "tree_allreduce");
  if (span.active()) {
    span.set_value(allreduce_seconds(
        CollectiveAlgo::kBinomialTree, ranks(),
        static_cast<double>(n * sizeof(float)), link_));
  }
  tree_reduce(rank, root, data);
  if (rank != root) data.assign(n, 0.0f);
  tree_broadcast(rank, root, data);
}

void Fabric::barrier(std::size_t rank) {
  DS_TRACE_SPAN("collective", "barrier");
  // Zero-byte tree allreduce still pays α per hop and, crucially, merges
  // clocks so every rank resumes at the same virtual time.
  std::vector<float> token(1, 0.0f);
  tree_allreduce(rank, 0, token);
}

}  // namespace ds
