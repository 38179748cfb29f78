#include "core/fabric_algorithms.hpp"

#include <functional>
#include <span>
#include <sstream>
#include <tuple>

#include "comm/bucket.hpp"
#include "comm/fabric.hpp"
#include "core/easgd_rules.hpp"
#include "core/run_harness.hpp"
#include "data/sampler.hpp"
#include "nn/forward_lanes.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/proto.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace ds {
namespace {

/// Thread→virtual-clock binding for a fabric rank thread: lets span events
/// recorded on this thread stamp themselves with the rank's fabric clock.
struct RankClock {
  const Fabric* fabric;
  std::size_t rank;
  static double read(const void* ctx) {
    const RankClock* rc = static_cast<const RankClock*>(ctx);
    return rc->fabric->clock(rc->rank);
  }
};

/// One rank thread's view of a fabric run: its clock, its measured share of
/// the cost ledger, and its monitor and protocol-checker narration.
class Rank {
 public:
  Rank(Fabric& fabric, std::size_t id, bool bills)
      : fabric(fabric), id(id), mark_(fabric.clock(id)), bills_(bills) {}

  Fabric& fabric;
  const std::size_t id;
  std::size_t round = 0;  // progress in flight; an abort reason names it
  CostLedger ledger;

  double clock() const { return fabric.clock(id); }
  void advance(double seconds) { fabric.advance(id, seconds); }

  /// Attribute the clock advance since the last bill to `phase`. Under
  /// faults and stragglers the deltas include the real retransmit and wait
  /// costs rather than a modeled residual. Ranks outside the protocol's
  /// breakdown bill nothing.
  void bill(Phase phase) {
    if (!bills_) return;
    const double now = clock();
    if (now > mark_) ledger.charge_traced(phase, now - mark_, now);
    mark_ = now;
  }

  /// Monitor step hook: `compute_s` is the step's own compute (straggler
  /// factor and jitter included, recv waits excluded) — the per-step signal
  /// the online straggler detector drifts on — or kDeriveStep.
  void step_done(double compute_s) const {
    obs::monitor::hook_step(static_cast<std::int64_t>(id), clock(), compute_s);
  }

  /// Narrate a parameter-buffer write for the protocol checker (proto.v1
  /// "acc" event). Buffer ids name PHYSICAL buffers — the center copy that
  /// lives on rank 0 and each rank's local replica — so a clean run's
  /// accesses are totally ordered per buffer and only genuinely racy
  /// schedules flag.
  void wrote(double buffer) const {
    if (!obs::tracing_enabled()) return;
    obs::proto::emit_acc(static_cast<std::int64_t>(id), clock(), buffer,
                         obs::proto::kAccWrite);
  }
  void wrote_replica() const {
    wrote(obs::proto::local_buffer(static_cast<std::int64_t>(id)));
  }

 private:
  double mark_;
  const bool bills_;
};

/// The harness every fabric EASGD runner shares. It owns the fabric and
/// everything around the protocol: the monitor's run hooks, the wire
/// metrics, one thread per rank with its clock binding, trace span and
/// ledger, the failure contract, the center's probes and the RunResult. A
/// runner supplies only its per-rank body. The ranks' networks outlive the
/// join: the probes run on them after it.
///
/// Failure contract: a RankFailure escaping a body — this rank crashed
/// (kCrashed, already marked failed in the fabric) or a peer vanished
/// mid-exchange (kPeerGone/kTimeout) — is caught here. The rank records its
/// abort reason in its own slot, rank 0 closes the trace with a probe at the
/// center's completed progress, and the rank retires so blocked peers
/// cascade out. Only worker ranks count toward workers_survived.
class FabricRun {
 public:
  /// kSpmd: every rank is a worker, rank 0 also holds the center, and rank
  /// 0's ledger is the breakdown (the ranks are symmetric). kCentered: rank
  /// 0 is a dedicated center (server or master) for workers 1..W, and the
  /// breakdown sums every rank, like Table 3 sums device time over GPUs.
  enum class Topology { kSpmd, kCentered };
  /// What a rank runs: its per-rank trace span and its protocol body.
  struct Role {
    const char* span;
    std::function<void(Rank&)> body;
  };

  FabricRun(const AlgoContext& ctx, const FabricClusterConfig& cluster,
            Topology topology)
      : ctx(ctx),
        cfg(ctx.config),
        spmd(topology == Topology::kSpmd),
        workers(ctx.config.workers),
        ranks(spmd ? workers : workers + 1),
        cadence(ctx, cfg.iterations),
        fabric(ranks, cluster.network, cluster.faults),
        fb_s(static_cast<double>(cfg.batch_size) *
             cluster.model.flops_per_sample / cluster.node_flops),
        up_s((cluster.model.weight_bytes / 4.0) *
             cluster.update_flops_per_param / cluster.node_flops),
        nets(ranks),
        wire_before_(obs::metrics().snapshot()),
        ledgers_(ranks),
        failures_(ranks) {
    DS_CHECK(workers > 0, "need at least one worker");
    obs::monitor::hook_run_begin(static_cast<std::int64_t>(ranks));
    if (!spmd) {
      // W̄₀ and the layer geometry come from one reference replica.
      nets[0] = ctx.factory();
      const auto params = nets[0]->arena().full_params();
      initial.assign(params.begin(), params.end());
      center = initial;
    }
  }

  const AlgoContext& ctx;
  const TrainConfig& cfg;
  const bool spmd;
  const std::size_t workers;
  const std::size_t ranks;
  const EvalCadence cadence;  // checked before the fabric is built
  Fabric fabric;
  // Per-iteration local costs charged to each rank's fabric clock; the
  // communication costs come from the fabric itself, message by message.
  const double fb_s;
  const double up_s;
  // Slot r is rank r's replica, built by its thread. A centered run's
  // rank 0 trains none: its slot holds the reference replica.
  std::vector<std::unique_ptr<Network>> nets;
  std::vector<float> initial;  // kCentered only: W̄₀
  std::vector<float> center;   // written only by rank 0's thread

  /// Rank 0: round t's center step is done; probe on the eval cadence.
  void round_done(std::size_t t) {
    completed_ = t;
    if (cadence.due(t)) {
      probes_.push_back(Snapshot{t, fabric.clock(0), center});
    }
  }

  RunResult execute(std::string method, const Role& rank0,
                    const Role& others) {
    parallel_for_threads(ranks, [&](std::size_t id) {
      rank_main(id, id == 0 ? rank0 : others);
    });
    obs::monitor::hook_run_finalize(fabric.max_clock());

    RunResult res;
    res.method = std::move(method);
    res.workers = workers;
    res.workers_survived = workers;
    for (std::size_t id = spmd ? 0 : 1; id < ranks; ++id) {
      // Ranks that crashed end in kFailed; ranks that caught a peer's
      // failure and unwound cleanly retire like normal finishers.
      if (fabric.state(id) == Fabric::RankState::kFailed) {
        --res.workers_survived;
      }
    }
    // A crash first, then the lowest (round, rank): the reason does not
    // depend on which rank thread unwound first.
    const Failure* cause = nullptr;
    for (const Failure& f : failures_) {
      if (!f.reason.empty() && (!cause || f.order < cause->order)) cause = &f;
    }
    if (cause) res.abort_reason = cause->reason;
    res.aborted = !res.abort_reason.empty();
    res.final_params = std::move(center);
    ThreadPool pool(worker_threads(ranks));
    std::vector<Tensor> inputs(pool.size());
    res.trace = probe_on_lanes(pool, std::span(nets).first(pool.size()),
                               inputs, ctx, probes_);
    finish_run(res, fabric.max_clock(),
               res.aborted ? completed_ : cfg.iterations);
    // The measured clock deltas ARE the breakdown, summed in rank order.
    for (const CostLedger& ledger : ledgers_) res.ledger += ledger;
    // Wire totals are the fabric metric deltas over the run (runs are
    // serial in-process, so the delta is exactly this fabric's).
    const obs::MetricsSnapshot after = obs::metrics().snapshot();
    res.messages_sent = static_cast<std::uint64_t>(
        after.delta(wire_before_, obs::names::kFabricMessagesSent));
    res.bytes_sent = static_cast<std::uint64_t>(
        after.delta(wire_before_, obs::names::kFabricBytesSent));
    res.retransmits = static_cast<std::uint64_t>(
        after.delta(wire_before_, obs::names::kFabricRetransmits));
    return res;
  }

 private:
  void rank_main(std::size_t id, const Role& role) {
    const RankClock rank_clock{&fabric, id};
    const obs::RankScope obs_rank(static_cast<std::int64_t>(id),
                                  &RankClock::read, &rank_clock);
    DS_TRACE_SPAN("algo", role.span);
    Rank rank(fabric, id, !spmd || id == 0);
    try {
      role.body(rank);
    } catch (const RankFailure& failure) {
      std::ostringstream os;
      os << "round " << rank.round << " aborted at rank " << id << ": "
         << failure.what();
      const bool crashed = failure.kind() == RankFailure::Kind::kCrashed;
      failures_[id] = Failure{{!crashed, rank.round, id}, os.str()};
      if (id == 0 &&
          (probes_.empty() || probes_.back().iteration < completed_)) {
        probes_.push_back(Snapshot{completed_, fabric.clock(0), center});
      }
      obs::monitor::hook_failure(static_cast<std::int64_t>(id),
                                 fabric.clock(id), failure.what());
    } catch (...) {
      // Any other error (bad input, a layer's typed error) ends the run:
      // retiring unblocks the peers waiting on this rank, and
      // parallel_for_threads rethrows it to the caller.
      fabric.retire(id);
      throw;
    }
    ledgers_[id] = rank.ledger;
    fabric.retire(id);
  }

  /// The RankFailure a rank caught, if any, ordered (not a crash, round,
  /// rank) to pick the run's abort reason.
  struct Failure {
    std::tuple<bool, std::size_t, std::size_t> order;
    std::string reason;  // empty: the rank did not fail
  };

  const obs::MetricsSnapshot wire_before_;
  std::vector<Snapshot> probes_;     // written only by rank 0's thread
  std::size_t completed_ = 0;        // written only by rank 0's thread
  std::vector<CostLedger> ledgers_;  // slot r written only by rank r
  std::vector<Failure> failures_;    // slot r written only by rank r
};

/// Bucketed-exchange geometry (DESIGN.md §10), a constant of the
/// configuration that every rank shares: the bucket plan over the reference
/// replica's layers, and the modeled split of one forward+backward —
/// forward = fb/3, backward = the remaining 2·fb/3 apportioned over layers
/// by their flops (uniform when the model reports none). The per-layer
/// shares are what the producer advances the rank clock by, so bucket
/// launch times land inside the backward span exactly where the retiring
/// layer does.
struct Buckets {
  Buckets() = default;
  Buckets(const Network& net, std::size_t bucket_bytes, double fb_s)
      : plan(net.arena().layer_sizes(), bucket_bytes), fwd_s(fb_s / 3.0) {
    const std::vector<double>& lf = net.layer_flops();
    double total = 0.0;
    for (double f : lf) total += f;
    const double span = fb_s - fwd_s;
    bwd_secs.assign(lf.size(), 0.0);
    for (std::size_t i = 0; i < lf.size(); ++i) {
      bwd_secs[i] = total > 0.0 ? span * lf[i] / total
                                : span / static_cast<double>(lf.size());
    }
  }

  std::size_t count() const { return plan.bucket_count(); }
  double frac(std::size_t b) const {
    return static_cast<double>(plan.bucket(b).params) /
           static_cast<double>(plan.total_params());
  }

  BucketPlan plan;
  double fwd_s = 0.0;
  std::vector<double> bwd_secs;
};

/// Wire form of one bucket push: the bucket id rides as payload[0] so every
/// bucket shares ONE push tag (per-sender FIFO then delivers a worker's
/// buckets in retire order, and a wildcard server can demultiplex).
std::vector<float> bucket_push_payload(const BucketPlan& plan, std::size_t b,
                                       std::span<const float> params) {
  const auto s = plan.slice(params, b);
  std::vector<float> payload;
  payload.reserve(s.size() + 1);
  payload.push_back(static_cast<float>(b));
  payload.insert(payload.end(), s.begin(), s.end());
  return payload;
}

/// A worker's model replica, kept in the run's rank slot, and its private
/// batch stream.
class Replica {
 public:
  Replica(FabricRun& run, Rank& rank, std::uint64_t seed_mult)
      : net(run.nets[rank.id] = run.ctx.factory()),
        run_(run),
        rank_(rank),
        sampler_(*run.ctx.train, run.cfg.batch_size,
                 run.cfg.seed * seed_mult + rank.id) {}

  const std::unique_ptr<Network>& net;

  std::span<float> params() { return net->arena().full_params(); }

  /// One forward+backward on the next batch, its modeled cost on the rank
  /// clock: all of fb_s after the pass or, bucketed, the forward share up
  /// front and the backward shares layer by layer from inside `producer`.
  /// Returns the clock delta, the step's own compute.
  double compute(const Buckets* bk = nullptr,
                 const Network::LayerReadyHook& producer = {}) {
    const double begin = rank_.clock();
    sampler_.next(batch_, labels_);
    net->zero_grads();
    if (bk != nullptr) {
      rank_.advance(bk->fwd_s);
      net->forward_backward(batch_, labels_, producer);
    } else {
      net->forward_backward(batch_, labels_);
      rank_.advance(run_.fb_s);
    }
    const double end = rank_.clock();
    rank_.bill(Phase::kForwardBackward);
    return end - begin;
  }

  /// Eq. (1) against `center`, narrated as a write to this replica.
  void update(std::span<const float> center, float lr) {
    easgd_worker_step(params(), net->arena().full_grads(), center, lr,
                      run_.cfg.rho);
    rank_.advance(run_.up_s);
    rank_.bill(Phase::kGpuUpdate);
    rank_.wrote_replica();
  }

  /// Eq. (1) on bucket b's slice against its center slice `cs`.
  void update_slice(const Buckets& bk, std::size_t b,
                    std::span<const float> cs, float lr) {
    DS_CHECK(cs.size() == bk.plan.bucket(b).params, "malformed bucket reply");
    easgd_worker_step(
        bk.plan.slice(params(), b),
        bk.plan.slice(std::span<const float>(net->arena().full_grads()), b),
        cs, lr, run_.cfg.rho);
    rank_.advance(run_.up_s * bk.frac(b));
    rank_.bill(Phase::kGpuUpdate);
  }

 private:
  const FabricRun& run_;
  Rank& rank_;
  BatchSampler sampler_;
  Tensor batch_;
  std::vector<std::int32_t> labels_;
};

/// The bucketed pipeline's producer: each retiring layer advances its
/// modeled backward share; a layer that completes a bucket ships the
/// PRE-update slice in flight (DMA-model send, riding under the remaining
/// backward) to rank 0 and then runs `after(b)`.
Network::LayerReadyHook bucket_producer(
    Rank& r, const Buckets& bk, Network& net, int push_tag,
    std::function<void(std::size_t)> after = {}) {
  return [&r, &bk, &net, push_tag, after](std::size_t layer) {
    r.advance(bk.bwd_secs[layer]);
    const std::size_t b = bk.plan.completes_at(layer);
    if (b == BucketPlan::kNoBucket) return;
    r.bill(Phase::kForwardBackward);
    r.fabric.send_overlapped(
        r.id, 0, push_tag,
        bucket_push_payload(bk.plan, b, net.arena().full_params()));
    r.bill(Phase::kGpuGpuParamComm);
    if (after) after(b);
  };
}

/// The master's half of Figure 5's interaction, shared by the parameter
/// server and the round-robin master: Eq. (2) against the pushed worker
/// weights, then the fresh W̄ back to the worker.
void serve_push(FabricRun& run, Rank& r, std::size_t src,
                std::span<const float> w_i, std::size_t t, int reply_tag) {
  easgd_center_step(run.center, w_i, run.cfg.lr_at(t), run.cfg.rho);
  r.advance(run.up_s);
  r.bill(Phase::kCpuUpdate);
  r.wrote(obs::proto::kCenterBuffer);
  run.fabric.send(0, src, reply_tag, run.center);
  r.bill(Phase::kGpuGpuParamComm);  // reply transmit
}

/// The worker's half: gradient at the LOCAL weights (elastic worker), push
/// W_i, await W̄, Eq. (1) against it — `rounds` times.
void push_pull_worker(FabricRun& run, Rank& r, std::uint64_t seed_mult,
                      std::size_t rounds, int push_tag, int reply_tag) {
  Replica rep(run, r, seed_mult);
  copy(run.initial, rep.params());
  for (r.round = 1; r.round <= rounds; ++r.round) {
    DS_TRACE_SPAN("algo", "interaction");
    const double compute_s = rep.compute();
    run.fabric.send(r.id, 0, push_tag,
                    std::vector<float>(rep.params().begin(),
                                       rep.params().end()));
    const std::vector<float> center = run.fabric.recv(r.id, 0, reply_tag);
    r.bill(Phase::kGpuGpuParamComm);  // push + wait for the reply
    rep.update(center, run.cfg.lr_at(r.round));
    r.step_done(compute_s);
  }
}

}  // namespace

RunResult run_fabric_easgd(const AlgoContext& ctx,
                           const FabricClusterConfig& cluster) {
  FabricRun run(ctx, cluster, FabricRun::Topology::kSpmd);
  const TrainConfig& cfg = ctx.config;
  auto body = [&](Rank& r) {
    Replica rep(run, r, 48271);
    // Rank 0's initial weights define W̄₀ for everyone (Algorithm 4
    // line 4: "KNL1 broadcasts W to all KNLs"); rank 0's copy is the
    // run's center.
    std::vector<float> local;
    std::vector<float>& center = r.id == 0 ? run.center : local;
    center.assign(rep.params().begin(), rep.params().end());
    run.fabric.tree_broadcast(r.id, 0, center);
    copy(center, rep.params());
    r.bill(Phase::kInit);

    std::vector<float> sum_w(rep.net->param_count());
    for (r.round = 1; r.round <= cfg.iterations; ++r.round) {
      const std::size_t t = r.round;
      DS_TRACE_SPAN("algo", "round");
      // Line 11: forward/backward on every node.
      const double compute_s = rep.compute();

      // Line 12: KNL1 broadcasts W̄_t.
      run.fabric.tree_broadcast(r.id, 0, center);

      // Line 13: KNL1 gets Σ W_j^t (pre-update weights). tree_reduce
      // consumes non-root buffers, so refill by assignment every round.
      sum_w.assign(rep.params().begin(), rep.params().end());
      run.fabric.tree_reduce(r.id, 0, sum_w);
      r.bill(Phase::kGpuGpuParamComm);

      // Line 14: every node applies Eq. (1) against the broadcast W̄_t.
      rep.update(center, cfg.lr_at(t));

      // Line 15: KNL1 applies Eq. (2).
      if (r.id == 0) {
        easgd_center_step_sum(center, sum_w, run.ranks, cfg.lr_at(t),
                              cfg.rho);
        r.advance(run.up_s);
        r.bill(Phase::kCpuUpdate);
        r.wrote(obs::proto::kCenterBuffer);
        run.round_done(t);
      }
      r.step_done(compute_s);
    }
  };
  const FabricRun::Role rank{"fabric_easgd_rank", body};
  return run.execute("Fabric EASGD (SPMD Algorithm 4)", rank, rank);
}

RunResult run_fabric_async_easgd(const AlgoContext& ctx,
                                 const FabricClusterConfig& cluster) {
  FabricRun run(ctx, cluster, FabricRun::Topology::kCentered);
  const TrainConfig& cfg = ctx.config;
  constexpr int kPushTag = 901;
  constexpr int kReplyTag = 902;
  auto server = [&](Rank& r) {
    // First-come-first-served: the loop ends early, through the harness's
    // failure path, once the surviving workers exhaust their quotas (or
    // the server itself crashes).
    for (r.round = 1; r.round <= cfg.iterations; ++r.round) {
      auto [src, w_i] = run.fabric.recv_any(0, kPushTag);
      r.bill(Phase::kGpuGpuParamComm);  // blocked waiting for a push
      serve_push(run, r, src, w_i, r.round, kReplyTag);
      run.round_done(r.round);
      r.step_done(obs::monitor::kDeriveStep);
    }
  };
  auto worker = [&](Rank& r) {
    // Interaction budget split across workers (remainder to low ranks).
    const std::size_t w = r.id - 1;
    const std::size_t quota = cfg.iterations / run.workers +
                              (w < cfg.iterations % run.workers ? 1 : 0);
    push_pull_worker(run, r, 31393, quota, kPushTag, kReplyTag);
  };
  return run.execute("Fabric Async EASGD (parameter server)",
                     {"async_server", server}, {"async_worker", worker});
}

RunResult run_fabric_bucketed_easgd(const AlgoContext& ctx,
                                    const FabricClusterConfig& cluster) {
  const TrainConfig& cfg = ctx.config;
  DS_CHECK(cfg.bucketing.enabled(),
           "run_fabric_bucketed_easgd needs cfg.bucketing.bucket_bytes > 0");
  const bool wait_free = cfg.bucketing.mode == BucketMode::kWaitFree;
  constexpr int kPushTag = 905;       // all buckets; payload[0] = bucket id
  constexpr int kReplyTagBase = 910;  // + bucket index

  FabricRun run(ctx, cluster, FabricRun::Topology::kCentered);
  const std::size_t workers = run.workers;
  const Buckets bk(*run.nets[0], cfg.bucketing.bucket_bytes, run.fb_s);
  const std::size_t nbuckets = bk.count();
  DS_CHECK(nbuckets > 0, "model has no parameters to bucket");

  auto center_main = [&](Rank& r) {
    std::vector<float>& center = run.center;
    // Apply Eq. (2) to one bucket slice from its fixed-order (deterministic)
    // or arrival-order (wait-free) Σ Wⱼ, charging the slice's share of the
    // paper-scale update cost.
    auto step_slice = [&](std::size_t b, const std::vector<float>& sum,
                          float lr) {
      easgd_center_step_sum(bk.plan.slice(std::span<float>(center), b), sum,
                            workers, lr, cfg.rho);
      r.advance(run.up_s * bk.frac(b));
      r.bill(Phase::kCpuUpdate);
      r.wrote(obs::proto::center_slice_buffer(b));
    };
    auto reply_slice = [&](std::size_t dst, std::size_t b) {
      const auto cs = bk.plan.slice(std::span<const float>(center), b);
      run.fabric.send(0, dst, kReplyTagBase + static_cast<int>(b),
                      std::vector<float>(cs.begin(), cs.end()));
      r.bill(Phase::kGpuGpuParamComm);
    };
    for (r.round = 1; r.round <= cfg.iterations; ++r.round) {
      const std::size_t t = r.round;
      DS_TRACE_SPAN("algo", "round");
      const obs::SpanGuard exch("collective", "bucket_exchange");
      const float lr = cfg.lr_at(t);
      if (!wait_free) {
        // Deterministic service: buckets in retire order, workers in rank
        // order within each bucket. Per-sender FIFO on the shared push tag
        // means the w-th matched recv IS worker w's bucket b.
        std::vector<float> sum;
        for (std::size_t b = 0; b < nbuckets; ++b) {
          const std::size_t nb = bk.plan.bucket(b).params;
          std::vector<std::vector<float>> pushes;
          pushes.reserve(workers);
          for (std::size_t w = 1; w <= workers; ++w) {
            pushes.push_back(run.fabric.recv(0, w, kPushTag));
            r.bill(Phase::kGpuGpuParamComm);
            DS_CHECK(pushes.back().size() == nb + 1 &&
                         static_cast<std::size_t>(pushes.back()[0]) == b,
                     "bucket push out of order");
          }
          // Reply the PRE-step slice in the same fixed order, then the
          // fixed-order sum: both are what makes deterministic-mode
          // results invariant across bucket sizes.
          for (std::size_t w = 1; w <= workers; ++w) reply_slice(w, b);
          sum.assign(nb, 0.0f);
          for (const std::vector<float>& p : pushes) {
            for (std::size_t k = 0; k < nb; ++k) sum[k] += p[k + 1];
          }
          step_slice(b, sum, lr);
        }
      } else {
        // Wait-free service: take pushes as they land, reply the pre-step
        // slice immediately, step a slice once all W contributions are
        // in. The LAST bucket's replies are held until the whole
        // iteration is served: a worker's final reply is the iteration
        // barrier, so no worker can push round t+1 into round t's sums.
        std::vector<std::vector<float>> sums(nbuckets);
        std::vector<std::size_t> got(nbuckets, 0);
        std::vector<std::size_t> last_srcs;
        for (std::size_t b = 0; b < nbuckets; ++b) {
          sums[b].assign(bk.plan.bucket(b).params, 0.0f);
        }
        const std::size_t last = nbuckets - 1;
        for (std::size_t n = 0; n < workers * nbuckets; ++n) {
          auto [src, push] = run.fabric.recv_any(0, kPushTag);
          r.bill(Phase::kGpuGpuParamComm);
          DS_CHECK(!push.empty(), "empty bucket push");
          const std::size_t b = static_cast<std::size_t>(push[0]);
          DS_CHECK(b < nbuckets && push.size() == bk.plan.bucket(b).params + 1,
                   "malformed bucket push");
          if (b < last) {
            reply_slice(src, b);
          } else {
            last_srcs.push_back(src);
          }
          for (std::size_t k = 0; k + 1 < push.size(); ++k) {
            sums[b][k] += push[k + 1];
          }
          if (++got[b] == workers && b < last) step_slice(b, sums[b], lr);
        }
        // Every push of the round is in: release the barrier with the
        // last bucket's pre-step slice (arrival order), then step it.
        for (const std::size_t src : last_srcs) reply_slice(src, last);
        step_slice(last, sums[last], lr);
      }
      run.round_done(t);
      r.step_done(obs::monitor::kDeriveStep);
    }
  };

  auto worker_main = [&](Rank& r) {
    Replica rep(run, r, 40503);
    copy(run.initial, rep.params());
    std::vector<bool> applied(nbuckets, false);
    float lr = cfg.lr_at(1);
    // Eq. (1) on one bucket slice against its PRE-step center reply. Safe
    // mid-backward: the slice's gradients retired with the bucket and the
    // remaining backward only touches lower layers.
    auto apply_bucket = [&](std::size_t b, const std::vector<float>& cs) {
      rep.update_slice(bk, b, cs, lr);
      applied[b] = true;
    };
    // Wait-free, each launch also drains earlier buckets whose replies
    // already landed.
    auto drain = [&](std::size_t launched) {
      for (std::size_t p = 0; p < launched; ++p) {
        if (applied[p]) continue;
        std::vector<float> reply;
        if (run.fabric.try_recv(r.id, 0, kReplyTagBase + static_cast<int>(p),
                                reply)) {
          r.bill(Phase::kGpuGpuParamComm);
          apply_bucket(p, reply);
        }
      }
    };
    const Network::LayerReadyHook producer =
        wait_free ? bucket_producer(r, bk, *rep.net, kPushTag, drain)
                  : bucket_producer(r, bk, *rep.net, kPushTag);

    for (r.round = 1; r.round <= cfg.iterations; ++r.round) {
      DS_TRACE_SPAN("algo", "round");
      lr = cfg.lr_at(r.round);
      applied.assign(nbuckets, false);
      // The overlapped bucket posts inside backward are alpha-only and
      // negligible next to the compute advances.
      const double compute_s = rep.compute(&bk, producer);
      // Pipeline tail: buckets with no reply yet are collected in retire
      // order — this wait is exactly the exchange left EXPOSED past
      // backward.
      {
        const obs::SpanGuard exch("collective", "bucket_exchange");
        for (std::size_t b = 0; b < nbuckets; ++b) {
          if (applied[b]) continue;
          const std::vector<float> reply =
              run.fabric.recv(r.id, 0, kReplyTagBase + static_cast<int>(b));
          r.bill(Phase::kGpuGpuParamComm);
          apply_bucket(b, reply);
        }
      }
      r.wrote_replica();
      r.step_done(compute_s);
    }
  };

  return run.execute(wait_free ? "Fabric Bucketed EASGD (wait-free)"
                               : "Fabric Bucketed EASGD (deterministic)",
                     {"bucketed_center", center_main},
                     {"bucketed_worker", worker_main});
}

RunResult run_fabric_round_robin_easgd(const AlgoContext& ctx,
                                       const FabricClusterConfig& cluster) {
  FabricRun run(ctx, cluster, FabricRun::Topology::kCentered);
  const TrainConfig& cfg = ctx.config;
  constexpr int kPushTag = 903;
  constexpr int kReplyTag = 904;
  constexpr std::uint64_t kSeedMult = 69621;

  // Optional bucketing (DESIGN.md §10): workers ship buckets in flight as
  // backward retires them; the master's sweep serves each worker's buckets
  // in retire order — still matched receives only, so the schedule stays a
  // constant of (workers, iterations, plan).
  const bool bucketed = cfg.bucketing.enabled();
  const Buckets bk =
      bucketed ? Buckets(*run.nets[0], cfg.bucketing.bucket_bytes, run.fb_s)
               : Buckets();

  auto master_main = [&](Rank& r) {
    for (r.round = 1; r.round <= cfg.iterations; ++r.round) {
      const std::size_t t = r.round;
      DS_TRACE_SPAN("algo", "sweep");
      // Algorithm 1's loop: visit every worker in rank order. Matched
      // receives make the schedule a constant of the configuration.
      for (std::size_t w = 1; w <= run.workers; ++w) {
        if (!bucketed) {
          const std::vector<float> w_i = run.fabric.recv(0, w, kPushTag);
          r.bill(Phase::kGpuGpuParamComm);  // blocked on worker w's push
          serve_push(run, r, w, w_i, t, kReplyTag);
          continue;
        }
        // Serve worker w's buckets in retire order (per-sender FIFO on the
        // push tag delivers exactly that order): Eq. (2) per slice, reply
        // the POST-step slice — the round-robin master always returns the
        // fresh center.
        for (std::size_t b = 0; b < bk.count(); ++b) {
          const std::vector<float> push = run.fabric.recv(0, w, kPushTag);
          r.bill(Phase::kGpuGpuParamComm);
          DS_CHECK(push.size() == bk.plan.bucket(b).params + 1 &&
                       static_cast<std::size_t>(push[0]) == b,
                   "bucket push out of order");
          const auto cs = bk.plan.slice(std::span<float>(run.center), b);
          easgd_center_step(cs, std::span<const float>(push).subspan(1),
                            cfg.lr_at(t), cfg.rho);
          r.advance(run.up_s * bk.frac(b));
          r.bill(Phase::kCpuUpdate);
          r.wrote(obs::proto::center_slice_buffer(b));
          run.fabric.send(0, w, kReplyTag,
                          std::vector<float>(cs.begin(), cs.end()));
          r.bill(Phase::kGpuGpuParamComm);
        }
      }
      run.round_done(t);
      r.step_done(obs::monitor::kDeriveStep);
    }
  };

  auto worker_main = [&](Rank& r) {
    if (!bucketed) {
      push_pull_worker(run, r, kSeedMult, cfg.iterations, kPushTag,
                       kReplyTag);
      return;
    }
    Replica rep(run, r, kSeedMult);
    copy(run.initial, rep.params());
    const Network::LayerReadyHook producer =
        bucket_producer(r, bk, *rep.net, kPushTag);
    for (r.round = 1; r.round <= cfg.iterations; ++r.round) {
      DS_TRACE_SPAN("algo", "interaction");
      const double compute_s = rep.compute(&bk, producer);
      // Collect the POST-step center slices in retire order (single reply
      // tag: the master's send order IS bucket order) and apply Eq. (1)
      // slice by slice.
      for (std::size_t b = 0; b < bk.count(); ++b) {
        const std::vector<float> cs = run.fabric.recv(r.id, 0, kReplyTag);
        r.bill(Phase::kGpuGpuParamComm);
        rep.update_slice(bk, b, cs, cfg.lr_at(r.round));
      }
      r.wrote_replica();
      r.step_done(compute_s);
    }
  };

  return run.execute(
      bucketed ? "Fabric Round-Robin EASGD (Algorithm 1, bucketed)"
               : "Fabric Round-Robin EASGD (Algorithm 1)",
      {"round_robin_master", master_main}, {"round_robin_worker", worker_main});
}

}  // namespace ds
