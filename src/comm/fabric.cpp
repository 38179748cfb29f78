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
  post(src, dst, tag, std::move(payload), /*overlapped=*/false);
}

void Fabric::send_overlapped(std::size_t src, std::size_t dst, int tag,
                             std::vector<float> payload) {
  post(src, dst, tag, std::move(payload), /*overlapped=*/true);
}

void Fabric::post(std::size_t src, std::size_t dst, int tag,
                  std::vector<float> payload, bool overlapped) {
  DS_CHECK(src < ranks() && dst < ranks(), "send rank out of range");
  DS_CHECK(src != dst, "self-send is a bug in the calling schedule");
  check_self_alive(src);
  const double bytes = static_cast<double>(payload.size() * sizeof(float));
  const double straggle = faults_.straggler_for(src);
  // Per attempt the sender's clock pays `charge`; `wire` runs off its clock
  // and lands in the arrival stamp. An eager send pays α + β·bytes inline;
  // an overlapped one pays only the descriptor post (α) while the DMA
  // engine owns the β·bytes transfer.
  const double charge =
      (overlapped ? link_.alpha : link_.transfer_seconds(bytes)) * straggle;
  const double wire = overlapped ? link_.beta * bytes * straggle : 0.0;
  const double drop = faults_.drop_probability;
  const std::size_t attempts =
      std::max<std::size_t>(1, faults_.max_send_attempts);

  Rng& rng = slots_[src]->rng;  // owner-thread only: sends are rank-serial
  double arrival = 0.0;
  bool delivered = false;
  double begin = 0.0;
  double end = 0.0;
  std::size_t attempts_used = 0;
  std::size_t drop_count = 0;
  // Drop timestamps for trace instants, captured inside the clock lock and
  // emitted after it (appending an event may allocate a segment).
  constexpr std::size_t kMaxDropStamps = 8;
  double drop_vtimes[kMaxDropStamps];
  std::vector<std::uint64_t> vclock;
  {
    const MutexLock lock(clocks_[src]->mutex);
    begin = clocks_[src]->value;
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
      ++attempts_used;
      double cost = charge;
      double transfer = wire;
      if (faults_.jitter > 0.0) {
        const double j = 1.0 + faults_.jitter * rng.uniform();
        cost *= j;
        transfer *= j;
      }
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
      arrival = clocks_[src]->value + transfer;
      delivered = true;
      break;
    }
    end = clocks_[src]->value;
    // One vector-clock tick per logical message, delivered or not — the
    // receiver-side checker pairs a "lost" narration with this seq.
    ++clocks_[src]->vclock[src];
    vclock = clocks_[src]->vclock;
  }
  const std::uint64_t seq = vclock[src];
  const auto rank = static_cast<std::int64_t>(src);
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
    obs::monitor::hook_retransmit(rank, end, attempts_used - 1);
  }
  for (std::size_t i = 0; i < std::min(drop_count, kMaxDropStamps); ++i) {
    obs::instant_at("fabric", "drop", drop_vtimes[i], rank);
  }
  obs::complete_v("fabric", overlapped ? "send_overlapped" : "send", begin,
                  end - begin, rank, bytes);
  obs::proto::emit_send(rank, end, seq, static_cast<std::int64_t>(dst), tag);
  // Lost after every retransmit: the message silently vanishes — eager
  // sends cannot report this; the receiver's timeout is the backstop.
  if (!delivered) {
    fm.messages_lost.add();
    obs::instant_at("fabric", "lost", end, rank);
    obs::proto::emit_lost(rank, end, seq, static_cast<std::int64_t>(dst), tag);
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

void Fabric::deliver(std::size_t dst, const Message& msg, bool any,
                     bool polled) {
  const std::uint64_t seq = msg.vclock[msg.src];
  double wait_begin = 0.0;
  double now = 0.0;
  {
    const MutexLock clock_lock(clocks_[dst]->mutex);
    wait_begin = clocks_[dst]->value;
    clocks_[dst]->value = std::max(clocks_[dst]->value, msg.arrival);
    now = clocks_[dst]->value;
    merge_vclock(clocks_[dst]->vclock, msg.vclock, dst);
  }
  const double wait = now - wait_begin;
  const auto rank = static_cast<std::int64_t>(dst);
  const auto src = static_cast<std::int64_t>(msg.src);
  fabric_metrics().recv_wait.add(wait);
  if (wait > 0.0) {
    obs::complete_v("fabric", "recv_wait", wait_begin, wait, rank);
  }
  // A successful poll narrates the wait at its (instantly satisfied) post
  // and the recv it resolved into; an empty poll narrates nothing.
  if (polled) obs::proto::emit_wait(rank, wait_begin, src, msg.tag, false);
  obs::proto::emit_recv(rank, now, seq, src, msg.tag, any);
}

bool Fabric::try_recv(std::size_t dst, std::size_t src, int tag,
                      std::vector<float>& out) {
  DS_CHECK(src < ranks() && dst < ranks(), "try_recv rank out of range");
  check_self_alive(dst);
  Mailbox& box = *mailboxes_[dst];
  Message msg;
  {
    const MutexLock lock(box.mutex);
    if (!pop(box, src, tag, msg)) return false;
  }
  deliver(dst, msg, /*any=*/false, /*polled=*/true);
  out = std::move(msg.payload);
  return true;
}

std::vector<float> Fabric::recv(std::size_t dst, std::size_t src, int tag) {
  DS_CHECK(src < ranks() && dst < ranks(), "recv rank out of range");
  Message msg = await(dst, src, tag);
  deliver(dst, msg, /*any=*/false, /*polled=*/false);
  return std::move(msg.payload);
}

std::pair<std::size_t, std::vector<float>> Fabric::recv_any(std::size_t dst,
                                                            int tag) {
  DS_CHECK(dst < ranks(), "recv_any rank out of range");
  Message msg = await(dst, kAnySource, tag);
  deliver(dst, msg, /*any=*/true, /*polled=*/false);
  return {msg.src, std::move(msg.payload)};
}

Fabric::Message Fabric::await(std::size_t dst, std::size_t src, int tag) {
  const bool any = src == kAnySource;
  const auto rank = static_cast<std::int64_t>(dst);
  const auto peer = static_cast<std::int64_t>(any ? 0 : src);
  // Narrate the wait at POST time, unconditionally: whether the message has
  // physically arrived yet is a wall-clock race, and the traced virtual
  // event sequence must be schedule-independent (determinism_test).
  if (obs::tracing_enabled()) {
    obs::proto::emit_wait(rank, clock(dst), peer, tag, any);
  }
  Mailbox& box = *mailboxes_[dst];
  UniqueLock lock(box.mutex);
  std::size_t polls = 0;
  Message msg;
  while (!(any ? pop_any(dst, box, tag, msg) : pop(box, src, tag, msg))) {
    // Liveness, in every mode, under the mailbox lock (a sender enqueues
    // before it retires, so a gone sender's last message is already here).
    // A matching message may be queued even though pop_any declined to
    // serve it (an any-chooser stalling for candidate discovery); the
    // receive can then still complete.
    bool sender_alive = false;
    for (std::size_t r = 0; r < ranks(); ++r) {
      sender_alive |= (any ? r != dst : r == src) &&
                      slots_[r]->state.load(std::memory_order_acquire) ==
                          kActive;
    }
    const bool queued =
        any && std::any_of(box.messages.begin(), box.messages.end(),
                           [&](const Message& m) { return m.tag == tag; });
    if (!sender_alive && !queued) {
      throw RankFailure(
          any ? dst : src, RankFailure::Kind::kPeerGone,
          any ? describe(dst, "no active senders remain")
              : describe(src, "peer gone with no matching message"));
    }
    if (!faults_on_) {
      box.cv.wait(lock);
      continue;
    }
    // Under an active plan, poll instead of waiting forever, so that a
    // crash of this rank or a lost message surfaces as a typed failure.
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
      obs::instant_at("fabric", "timeout", timeout_at, rank);
      obs::proto::emit_timeout(rank, timeout_at, peer, tag, any);
      throw RankFailure(any ? dst : src, RankFailure::Kind::kTimeout,
                        describe(dst, any ? "recv_any timed out"
                                          : "recv timed out — message lost"));
    }
    lock.lock();
    if (box.cv.wait_for(lock, std::chrono::duration<double>(
                                  faults_.recv_poll_seconds)) ==
        std::cv_status::timeout) {
      ++polls;
    }
  }
  return msg;
}

bool Fabric::pop(Mailbox& box, std::size_t src, int tag, Message& out) {
  const auto it = std::find_if(
      box.messages.begin(), box.messages.end(),
      [&](const Message& m) { return m.src == src && m.tag == tag; });
  if (it == box.messages.end()) return false;
  out = std::move(*it);
  box.messages.erase(it);
  return true;
}

bool Fabric::pop_any(std::size_t dst, Mailbox& box, int tag, Message& out) {
  // The distinct queued sources in rotation-preference order: distance from
  // the rotation start, so index 0 is one past the last source served.
  const std::size_t p = ranks();
  const std::size_t start = box.any_rotation;
  const auto before = [&](std::size_t a, std::size_t b) {
    return (a + p - start) % p < (b + p - start) % p;
  };
  std::vector<std::size_t>& candidates = box.candidates;
  candidates.clear();
  for (const Message& m : box.messages) {
    if (m.tag != tag) continue;
    const auto at = std::lower_bound(candidates.begin(), candidates.end(),
                                     m.src, before);
    if (at == candidates.end() || *at != m.src) candidates.insert(at, m.src);
  }
  if (candidates.empty()) return false;
  std::size_t pick = 0;
  if (any_chooser_ != nullptr) {
    pick = any_chooser_(any_chooser_ctx_, dst, candidates.data(),
                        candidates.size());
    if (pick == kChooserWait) return false;
    DS_CHECK(pick < candidates.size(), "any chooser index out of range");
  }
  // Per-sender FIFO: pop serves the chosen source's oldest message.
  const std::size_t src = candidates[pick];
  pop(box, src, tag, out);
  box.any_rotation = (src + 1) % p;
  return true;
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
