// What every training runner shares, private to src/core: the trace
// cadence, the result tail and the modeled wire accounting. Plus
// ModeledRun, the harness of the five modeled runners (Original EASGD,
// Sync EASGD1/2/3, Sync SGD, cluster Sync EASGD, KNL partition) — the
// modeled-side counterpart of the fabric runners' FabricRun.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/fault.hpp"
#include "core/context.hpp"
#include "core/replica_set.hpp"
#include "core/run_result.hpp"
#include "obs/trace.hpp"

namespace ds {

/// When a run probes its center: every `eval_every` iterations and at
/// `last`. Built at a runner's entry, before any thread or replica starts,
/// it also checks the counts the run divides by or sizes batches with:
/// eval_every, batch_size and eval_samples must be at least 1 and the test
/// set non-empty, or the caller gets a ds::Error rather than a division by
/// zero mid-run or an exception inside a worker thread.
class EvalCadence {
 public:
  EvalCadence(const AlgoContext& ctx, std::size_t last);
  bool due(std::size_t t) const { return t % every_ == 0 || t == last_; }

 private:
  std::size_t every_;
  std::size_t last_;
};

/// The result tail: the run's virtual end time, the iterations it
/// completed, and the last trace point's loss and accuracy.
void finish_run(RunResult& res, double total_seconds, std::size_t iterations);

/// Wire accounting of a modeled run (no fabric to count on): the message
/// and byte totals its schedule implies over res.iterations, also added to
/// the modeled-wire counters.
void record_modeled_wire(RunResult& res, double messages_per_iteration,
                         double bytes_per_iteration);

/// Phase charges laid end to end from a round's start: each span ends where
/// the next begins.
struct ChargeChain {
  CostLedger& ledger;
  const double start;
  double end;

  void then(Phase phase, double seconds) {
    end += seconds;
    ledger.charge_traced(phase, seconds, end);
  }
};

/// The harness of the modeled runners. It owns the rank-0 timeline and the
/// `algo` span, the replicas (which also run the probes), the sync family's
/// reading of a FaultPlan (one straggler gates every round, and the
/// earliest scheduled crash ends the run) with its crash-abort path, the
/// clock, the eval cadence and the RunResult. A runner supplies its math
/// and its per-round costs:
///
///   for (std::size_t t = 1; t <= last && run.survives(t, seconds); ++t) {
///     ...math...;  ChargeChain c = run.chain();  c.then(...);
///     run.round_done(t, seconds);
///   }
///   return run.finish(messages_per_round, bytes_per_round);
class ModeledRun {
 public:
  /// What the trace probes and final_params report: a center W̄ that starts
  /// at replica 0's weights, or replica 0 itself when the replicas apply
  /// the same averaged update and so stay bit-identical.
  enum class Model { kCenter, kReplica0 };

  /// `span` names the run's `algo` span. The run keeps `count` replicas,
  /// replica i's batch sampler seeded `first_seed + i`, and `last` is its
  /// final round, which is always probed.
  ModeledRun(const AlgoContext& ctx, const char* span, std::size_t count,
             std::uint64_t first_seed, Model model,
             std::size_t last, const FaultPlan& faults = FaultPlan::none());

 private:
  // Declared first: every member below is built on rank 0's timeline,
  // inside the span.
  const obs::RankScope rank_;
  const obs::SpanGuard span_;
  const EvalCadence cadence_;

 public:
  const TrainConfig& cfg;
  ReplicaSet replicas;
  double slow = 1.0;          // max straggler factor over the workers
  std::vector<float> center;  // Model::kCenter only
  RunResult res;
  double vtime = 0.0;  // start of the next round

  /// False when round t, lasting `seconds`, would end past the first
  /// scheduled crash: a worker dies mid-round, so the round's math never
  /// commits. The run is then aborted with a probe at its completed
  /// progress, and the caller stops and returns finish().
  bool survives(std::size_t t, double seconds);

  /// Charges of the round starting now.
  ChargeChain chain() { return {res.ledger, vtime, vtime}; }

  /// Round t is done and took `seconds`: advance the clock and probe on the
  /// cadence. Returns the new trace point, or nullptr off the cadence.
  const TracePoint* round_done(std::size_t t, double seconds);

  /// A synchronous EASGD round over the replicas' fresh gradients: reduce
  /// ΣWⱼ (pre-update weights) to the master, Eq. (1) on every replica
  /// against W̄, then Eq. (2) on the center.
  void easgd_round(float lr);

  /// A data-parallel SGD round: average the replicas' gradients layer by
  /// layer (per-layer arenas work too) and apply the same SGD step to every
  /// replica, which keeps them bit-identical.
  void sgd_round(float lr);

  /// The result tail, with the modeled wire a round moves.
  RunResult finish(double messages_per_round, double bytes_per_round);
  /// The result tail of a run with no modeled wire.
  RunResult finish();

 private:
  void probe(std::size_t t);

  const Model model_;
  double crash_horizon_ = kNeverCrashes;
  std::size_t crash_worker_ = 0;
  std::size_t completed_ = 0;
  std::vector<std::span<const float>> views_;
  std::vector<float> sum_;
};

}  // namespace ds
