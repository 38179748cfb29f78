#include "core/run_harness.hpp"

#include <algorithm>
#include <sstream>

#include "comm/collectives.hpp"
#include "core/easgd_rules.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace ds {

EvalCadence::EvalCadence(const AlgoContext& ctx, std::size_t last)
    : every_(ctx.config.eval_every), last_(last) {
  DS_CHECK(every_ > 0, "eval_every must be at least 1");
  DS_CHECK(ctx.config.batch_size > 0, "batch_size must be at least 1");
  DS_CHECK(ctx.config.eval_samples > 0, "eval_samples must be at least 1");
  DS_CHECK(ctx.test != nullptr && ctx.test->size() > 0,
           "the test set is empty");
}

void finish_run(RunResult& res, double total_seconds, std::size_t iterations) {
  res.total_seconds = total_seconds;
  res.iterations = iterations;
  if (!res.trace.empty()) {
    res.final_accuracy = res.trace.back().accuracy;
    res.final_loss = res.trace.back().loss;
  }
}

void record_modeled_wire(RunResult& res, double messages_per_iteration,
                         double bytes_per_iteration) {
  const double iters = static_cast<double>(res.iterations);
  res.messages_sent =
      static_cast<std::uint64_t>(messages_per_iteration * iters);
  res.bytes_sent = static_cast<std::uint64_t>(bytes_per_iteration * iters);
  obs::metrics()
      .counter(obs::names::kCommMessagesModeled)
      .add(res.messages_sent);
  obs::metrics().counter(obs::names::kCommBytesModeled).add(res.bytes_sent);
}

ModeledRun::ModeledRun(const AlgoContext& ctx, const char* span,
                       std::size_t count, std::uint64_t first_seed,
                       Model model, std::size_t last, const FaultPlan& faults)
    : rank_(0),  // modeled runs live on a single virtual timeline
      span_("algo", span),
      cadence_(ctx, last),
      cfg(ctx.config),
      replicas(ctx, count, first_seed),
      model_(model) {
  if (model == Model::kCenter) {
    const auto p0 = replicas.net(0).arena().full_params();
    center.assign(p0.begin(), p0.end());
    sum_.resize(center.size());
  }
  views_.reserve(count);
  res.workers = count;
  res.workers_survived = count;
  for (std::size_t j = 0; j < count; ++j) {
    slow = std::max(slow, faults.straggler_for(j));
    if (faults.crash_time(j) < crash_horizon_) {
      crash_horizon_ = faults.crash_time(j);
      crash_worker_ = j;
    }
  }
}

bool ModeledRun::survives(std::size_t t, double seconds) {
  if (vtime + seconds < crash_horizon_) return true;
  res.aborted = true;
  res.workers_survived = res.workers - 1;
  std::ostringstream os;
  os << "worker " << crash_worker_ << " crashed in round " << t
     << "; round aborted";
  res.abort_reason = os.str();
  if (res.trace.empty() || res.trace.back().iteration != t - 1) probe(t - 1);
  return false;
}

const TracePoint* ModeledRun::round_done(std::size_t t, double seconds) {
  vtime += seconds;
  completed_ = t;
  if (!cadence_.due(t)) return nullptr;
  probe(t);
  return &res.trace.back();
}

void ModeledRun::probe(std::size_t t) {
  res.trace.push_back(replicas.probe(
      {t, vtime, model_ == Model::kCenter ? center : std::vector<float>()}));
}

void ModeledRun::easgd_round(float lr) {
  views_.clear();
  for (const auto& net : replicas.nets()) {
    views_.push_back(net->arena().full_params());
  }
  reduce_sum(views_, sum_);
  for (const auto& net : replicas.nets()) {
    easgd_worker_step(net->arena().full_params(), net->arena().full_grads(),
                      center, lr, cfg.rho);
  }
  easgd_center_step_sum(center, sum_, replicas.size(), lr, cfg.rho);
}

void ModeledRun::sgd_round(float lr) {
  const float inv_replicas = 1.0f / static_cast<float>(replicas.size());
  const std::size_t layer_count = replicas.net(0).arena().layer_count();
  for (std::size_t l = 0; l < layer_count; ++l) {
    const std::size_t n = replicas.net(0).arena().layer_grads(l).size();
    if (n == 0) continue;
    views_.clear();
    for (const auto& net : replicas.nets()) {
      views_.push_back(net->arena().layer_grads(l));
    }
    sum_.resize(n);
    reduce_sum(views_, sum_);
    scale(inv_replicas, sum_);
    for (const auto& net : replicas.nets()) {
      copy(sum_, net->arena().layer_grads(l));
      sgd_step(net->arena().layer_params(l), net->arena().layer_grads(l), lr);
    }
  }
}

RunResult ModeledRun::finish(double messages_per_round,
                             double bytes_per_round) {
  RunResult out = finish();
  record_modeled_wire(out, messages_per_round, bytes_per_round);
  return out;
}

RunResult ModeledRun::finish() {
  finish_run(res, vtime, completed_);
  if (model_ == Model::kCenter) {
    res.final_params = center;
  } else {
    const ParamArena& arena = replicas.net(0).arena();
    res.final_params.resize(arena.total_params());
    arena.save_params(res.final_params);
  }
  return std::move(res);
}

}  // namespace ds
