#include "core/async_algorithms.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>

#include "support/thread_annotations.hpp"

#include "core/easgd_rules.hpp"
#include "core/run_harness.hpp"
#include "data/sampler.hpp"
#include "nn/forward_lanes.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace ds {
namespace {

struct MasterState {
  // Deliberately unannotated: the Hogwild variants read and update the
  // center with NO lock (the algorithm's defining property), while the
  // locked variants guard it with `mutex`. A GUARDED_BY here would force
  // no-analysis escapes onto the Hogwild path, hiding real findings.
  std::vector<float> center;
  Mutex mutex;  // FCFS lock — NOT taken by Hogwild variants
  std::vector<float> momentum DS_GUARDED_BY(mutex);  // Async MSGD only
  std::atomic<std::size_t> ticket{0};

  Mutex clock_mutex;
  double clock DS_GUARDED_BY(clock_mutex) = 0.0;  // serialised-master vclock

  Mutex trace_mutex;
  std::vector<Snapshot> snapshots DS_GUARDED_BY(trace_mutex);

  Mutex ledger_mutex;
  CostLedger ledger DS_GUARDED_BY(ledger_mutex);

  std::atomic<std::size_t> crashed{0};    // workers lost to the FaultPlan
  std::atomic<std::size_t> completed{0};  // interactions actually executed
};

}  // namespace

const char* async_method_name(AsyncMethod method) {
  switch (method) {
    case AsyncMethod::kAsyncSgd: return "Async SGD";
    case AsyncMethod::kAsyncMomentumSgd: return "Async MSGD";
    case AsyncMethod::kAsyncEasgd: return "Async EASGD";
    case AsyncMethod::kAsyncMomentumEasgd: return "Async MEASGD";
    case AsyncMethod::kHogwildSgd: return "Hogwild SGD";
    case AsyncMethod::kHogwildEasgd: return "Hogwild EASGD";
  }
  return "?";
}

RunResult run_async(const AlgoContext& ctx, const GpuSystem& hw,
                    AsyncMethod method, const FaultPlan& faults) {
  const TrainConfig& cfg = ctx.config;
  DS_CHECK(cfg.workers > 0, "need at least one worker");
  const EvalCadence cadence(ctx, cfg.iterations);
  const bool faults_on = faults.active();
  const bool easgd = method == AsyncMethod::kAsyncEasgd ||
                     method == AsyncMethod::kAsyncMomentumEasgd ||
                     method == AsyncMethod::kHogwildEasgd;
  const bool lock_free = method == AsyncMethod::kHogwildSgd ||
                         method == AsyncMethod::kHogwildEasgd;
  const bool momentum = method == AsyncMethod::kAsyncMomentumSgd ||
                        method == AsyncMethod::kAsyncMomentumEasgd;

  // Master initialisation: one replica, nets[0], defines W̄₀ for
  // everybody; worker w trains nets[w + 1]. All of them outlive the join
  // and run the probes after it.
  std::vector<std::unique_ptr<Network>> nets(cfg.workers + 1);
  nets[0] = ctx.factory();
  MasterState master;
  {
    const auto params = nets[0]->arena().full_params();
    master.center.assign(params.begin(), params.end());
    if (momentum && !easgd) {
      // Workers don't exist yet, but momentum is guarded: take the lock.
      const MutexLock lock(master.mutex);
      master.momentum.assign(params.size(), 0.0f);
    }
  }
  // Momentum multiplies the asymptotic step by 1/(1−µ); normalise so every
  // method takes comparable effective steps under the shared hyperparameters
  // (§2.4 holds the base η fixed across methods).
  const float momentum_factor = momentum ? 1.0f - cfg.momentum : 1.0f;

  // Per-interaction costs (same for every method — §2.4's same-hardware
  // discipline; the methods differ only in schedule and update rule).
  const double data_s = hw.data_copy_seconds(cfg.batch_size);
  const double fb_s = hw.fwd_bwd_seconds(cfg.batch_size);
  const double hop = hw.host_param_hop_seconds(MessageLayout::kPacked);
  const double gup_s = hw.gpu_update_seconds();
  const double cup_s = hw.cpu_update_seconds();

  // Copy W̄ out of the master: under the FCFS lock, or racily for the
  // Hogwild variants — by design.
  const auto read_center = [&](std::span<float> out) {
    if (lock_free) {
      std::memcpy(out.data(), master.center.data(), out.size() * sizeof(float));
      return;
    }
    const MutexLock lock(master.mutex);
    std::memcpy(out.data(), master.center.data(), out.size() * sizeof(float));
  };

  auto worker_fn = [&](std::size_t wid) {
    // Each simulated device gets its own rank: its ledger spans land on
    // their own virtual timeline in the exported trace.
    const obs::RankScope obs_rank(static_cast<std::int64_t>(wid));
    DS_TRACE_SPAN("algo", "async_worker");
    const std::unique_ptr<Network>& net = nets[wid + 1] = ctx.factory();
    // All workers start from W̄₀. Another worker may already be inside a
    // center update by the time this thread launches, so the locked
    // variants take the FCFS lock even for the initial read.
    read_center(net->arena().full_params());
    BatchSampler sampler(*ctx.train, cfg.batch_size, cfg.seed * 104729 + wid);
    Tensor batch;
    std::vector<std::int32_t> labels;
    std::vector<float> center_copy(master.center.size());
    std::vector<float> worker_momentum;
    if (momentum && easgd) worker_momentum.assign(master.center.size(), 0.0f);
    CostLedger local_ledger;
    double wclock = 0.0;
    const double slow = faults.straggler_for(wid);
    const double death = faults.crash_time(wid);

    for (;;) {
      if (faults_on && wclock >= death) {
        // Scheduled crash, detected at the iteration boundary: this worker
        // stops touching the master and the FCFS ticket queue hands its
        // remaining interaction share to the survivors.
        master.crashed.fetch_add(1);
        break;
      }
      const std::size_t my = master.ticket.fetch_add(1);
      if (my >= cfg.iterations) break;
      const std::size_t iter = my + 1;
      const float lr = cfg.lr_at(iter) * momentum_factor;

      sampler.next(batch, labels);

      if (easgd) {
        // Elastic worker: the gradient is taken at the LOCAL weights, so
        // the W̄ pull overlaps with compute (prefetch); the elastic pull is
        // applied after.
        read_center(center_copy);
        net->zero_grads();
        net->forward_backward(batch, labels);
        wclock += (data_s + std::max(fb_s, hop)) * slow;

        if (momentum) {
          measgd_worker_step(net->arena().full_params(), worker_momentum,
                             net->arena().full_grads(), center_copy, lr,
                             cfg.momentum, cfg.rho);
        } else {
          easgd_worker_step(net->arena().full_params(),
                            net->arena().full_grads(), center_copy, lr,
                            cfg.rho);
        }
        wclock += gup_s * slow;
        local_ledger.charge_traced(Phase::kGpuUpdate, gup_s, wclock);

        // Push W_i; master applies Eq. (2).
        if (lock_free) {
          easgd_center_step(master.center, net->arena().full_params(), lr,
                            cfg.rho);
          wclock += (hop + cup_s) * slow;
        } else {
          const MutexLock lock(master.mutex);
          easgd_center_step(master.center, net->arena().full_params(), lr,
                            cfg.rho);
          const MutexLock clock_lock(master.clock_mutex);
          master.clock = std::max(master.clock, wclock) + hop + cup_s;
          wclock = master.clock;
        }
      } else {
        // Parameter-server SGD: pull W̄, compute the gradient AT W̄, push
        // the gradient. The pull is a strict dependency — no overlap.
        read_center(net->arena().full_params());
        net->zero_grads();
        net->forward_backward(batch, labels);
        wclock += (data_s + hop + fb_s) * slow;

        if (lock_free) {
          sgd_step(master.center, net->arena().full_grads(), lr);
          wclock += (hop + cup_s) * slow;
        } else {
          const MutexLock lock(master.mutex);
          if (momentum) {
            momentum_step(master.center, master.momentum,
                          net->arena().full_grads(), lr, cfg.momentum);
          } else {
            sgd_step(master.center, net->arena().full_grads(), lr);
          }
          const MutexLock clock_lock(master.clock_mutex);
          master.clock = std::max(master.clock, wclock) + hop + cup_s;
          wclock = master.clock;
        }
      }

      // Span chain tiled backwards from the interaction's end time. The
      // charged amounts are the unscaled §2.4 costs, so the tiling is an
      // attribution of the interaction, not a replay of the wclock
      // arithmetic — the rollup still sums to the ledger exactly.
      const double start = wclock - (data_s + 2.0 * hop + fb_s + cup_s);
      ChargeChain c{local_ledger, start, start};
      c.then(Phase::kCpuGpuDataComm, data_s);
      c.then(Phase::kCpuGpuParamComm, 2.0 * hop);
      c.then(Phase::kForwardBackward, fb_s);
      c.then(Phase::kCpuUpdate, cup_s);

      if (cadence.due(iter)) {
        Snapshot snap;
        snap.iteration = iter;
        snap.vtime = wclock;
        snap.weights.resize(master.center.size());
        read_center(snap.weights);
        const MutexLock lock(master.trace_mutex);
        master.snapshots.push_back(std::move(snap));
      }
      master.completed.fetch_add(1, std::memory_order_relaxed);
    }

    const MutexLock lock(master.ledger_mutex);
    master.ledger += local_ledger;
  };

  std::vector<std::thread> threads;
  threads.reserve(cfg.workers);
  for (std::size_t i = 0; i < cfg.workers; ++i) {
    threads.emplace_back(worker_fn, i);
  }
  for (auto& t : threads) t.join();

  // Probe the snapshots after the fact, on the now idle networks (probes
  // are not part of the measured training time). The workers are joined,
  // but the capabilities still travel with the guarded members — move them
  // out under their locks.
  std::vector<Snapshot> snapshots;
  {
    const MutexLock lock(master.trace_mutex);
    snapshots = std::move(master.snapshots);
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const Snapshot& a, const Snapshot& b) {
              return a.iteration < b.iteration;
            });
  RunResult res;
  res.method = async_method_name(method);
  {
    const MutexLock lock(master.ledger_mutex);
    res.ledger = master.ledger;
  }
  double vtime_monotone = 0.0;
  for (Snapshot& snap : snapshots) {
    vtime_monotone = std::max(vtime_monotone, snap.vtime);
    snap.vtime = vtime_monotone;
  }
  ThreadPool pool(worker_threads(nets.size()));
  res.trace = probe_on_lanes(&pool, std::span(nets).first(pool.size()), ctx,
                             snapshots);
  finish_run(res, vtime_monotone, master.completed.load());
  res.workers = cfg.workers;
  res.workers_survived = cfg.workers - master.crashed.load();
  if (res.workers_survived < res.workers) {
    // Crashes only abort the run when they leave the interaction budget
    // unfinished (i.e. every worker died); otherwise the FCFS ticket queue
    // let the survivors absorb the lost worker's share.
    res.aborted = res.iterations < cfg.iterations;
    std::ostringstream os;
    os << (res.workers - res.workers_survived) << " worker(s) crashed; "
       << (res.aborted ? "interaction budget cut to " : "survivors finished ")
       << res.iterations << '/' << cfg.iterations << " interactions";
    res.abort_reason = os.str();
  }
  res.final_params.assign(master.center.begin(), master.center.end());
  // Packed W̄ pull + push per interaction across the host link.
  record_modeled_wire(res, 2.0, 2.0 * hw.model().weight_bytes);
  return res;
}

}  // namespace ds
