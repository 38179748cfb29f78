// Deterministic fault injection for the communication fabric.
//
// A FaultPlan describes everything that can go wrong in a run: per-link
// message drop probabilities, transfer-time jitter, per-rank straggler
// slowdowns, and scheduled rank crashes (in virtual time). The plan is pure
// data — the Fabric threads it through send/recv/advance and the tree
// collectives, and the algorithm layer decides how to degrade when a
// RankFailure surfaces.
//
// Design contract (see DESIGN.md §"Fault model"):
//   * All randomness derives from plan.seed via per-rank xoshiro streams,
//     so a given plan + schedule replays the same faults every run.
//   * A default-constructed (all-zero) plan is behavior-neutral: the fabric
//     runs its one send/receive path with neutral values (straggler ×1.0,
//     no jitter, no drops) and draws no random numbers, so virtual-time
//     numbers are bit-identical to a run without a plan
//     (CollectiveFaultNeutrality.ZeroPlanClocksMatchNoPlanBitwise).
//   * Faults never deadlock: a dead or retired peer surfaces as a typed
//     RankFailure(kPeerGone) in every mode; under an active plan a lost
//     message surfaces as RankFailure(kTimeout) instead of an eternal
//     condition-variable wait.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace ds {

/// Typed error surfaced by the fabric (and propagated by the algorithms)
/// when a rank can no longer make progress: it crossed its scheduled crash
/// time, a peer it depends on is gone, or a receive timed out on a message
/// that will never arrive.
class RankFailure : public Error {
 public:
  enum class Kind {
    kCrashed,   // this rank hit its scheduled crash time
    kPeerGone,  // the awaited peer crashed or retired with nothing pending
    kTimeout,   // receive timed out (message lost after all retransmits)
  };

  RankFailure(std::size_t rank, Kind kind, const std::string& what)
      : Error(what), rank_(rank), kind_(kind) {}

  /// The rank the failure is about: the crashed rank itself for kCrashed,
  /// the vanished/silent peer for kPeerGone and matched-recv kTimeout (the
  /// receiver itself for a recv_any timeout, where no single peer is to
  /// blame).
  std::size_t rank() const { return rank_; }
  Kind kind() const { return kind_; }

 private:
  std::size_t rank_;
  Kind kind_;
};

constexpr double kNeverCrashes = std::numeric_limits<double>::infinity();

/// Seeded, declarative description of the faults to inject into one run.
struct FaultPlan {
  std::uint64_t seed = 0x5EEDFA17ULL;

  // --- message-level faults ------------------------------------------
  /// Per-attempt probability that a message is dropped on the wire, on
  /// every link.
  double drop_probability = 0.0;
  /// Uniform transfer-time inflation: each attempt costs
  /// transfer · (1 + jitter · u) with u ~ U[0,1). 0 = no jitter.
  double jitter = 0.0;

  // --- rank-level faults ---------------------------------------------
  /// Per-rank slowdown multiplier (≥ 1) applied to local compute
  /// (Fabric::advance) and to this rank's send transfer times.
  /// Empty or 1.0 = full speed.
  std::vector<double> straggler;
  /// Per-rank virtual-clock crash times; kNeverCrashes (or an empty
  /// vector) means the rank survives the whole run.
  std::vector<double> crash_at;

  // --- recovery knobs ------------------------------------------------
  /// Retransmit attempts before a message is declared lost. Each dropped
  /// attempt still charges the sender's clock (transfer + retry_backoff).
  std::size_t max_send_attempts = 5;
  /// Virtual seconds the sender loses per retransmit (ack-timeout model).
  double retry_backoff = 50.0e-6;
  /// Virtual seconds charged to a receiver whose blocking recv gives up —
  /// the price of the timeout that replaces an eternal wait.
  double recv_timeout = 1.0;
  /// Real seconds per liveness poll while a faulty-mode recv is blocked.
  double recv_poll_seconds = 0.002;
  /// Real-time polls before a blocked recv declares kTimeout. The backstop
  /// against truly lost messages; peers that crash or retire are detected
  /// immediately, without burning the full budget.
  std::size_t max_recv_polls = 2000;
  /// Force the polling/timeout receive paths even when nothing is injected.
  /// Virtual-time numbers stay identical to a fault-free run (no drops, no
  /// jitter, no RNG draws), but a blocked receive eventually surfaces as
  /// RankFailure(kTimeout) instead of waiting forever. check::explore uses
  /// this to bound every schedule it tries; a would-be deadlock becomes a
  /// typed failure.
  bool poll_recvs = false;

  /// False ⇔ the plan injects nothing and does not ask for polling: the
  /// fabric's receives then block without a timeout, and the crash checks
  /// are skipped.
  bool active() const;

  /// Straggler slowdown for `rank` (1.0 when unspecified).
  double straggler_for(std::size_t rank) const;

  /// Scheduled crash time for `rank` (kNeverCrashes when unspecified).
  double crash_time(std::size_t rank) const;

  // Fluent builders used by tests/benches.
  FaultPlan& with_drop(double probability);
  FaultPlan& with_jitter(double fraction);
  FaultPlan& with_straggler(std::size_t rank, double factor);
  FaultPlan& with_crash(std::size_t rank, double virtual_time);
  FaultPlan& with_polling(std::size_t polls, double poll_seconds);

  static FaultPlan none() { return FaultPlan{}; }
};

}  // namespace ds
