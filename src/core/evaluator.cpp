#include "core/evaluator.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "data/sampler.hpp"
#include "nn/loss.hpp"
#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace ds {

namespace {
constexpr std::size_t kEvalChunk = 64;
}

TracePoint reduce_logits(const Tensor& logits,
                         std::span<const std::int32_t> labels) {
  const std::size_t rows = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  DS_CHECK(rows > 0 && labels.size() == rows,
           "labels " << labels.size() << " vs logit rows " << rows);
  const SoftmaxCrossEntropy loss;
  Tensor chunk;
  double loss_sum = 0.0;
  std::size_t correct = 0;
  for (std::size_t done = 0; done < rows; done += kEvalChunk) {
    const std::size_t take = std::min(kEvalChunk, rows - done);
    const Shape shape{take, classes};
    chunk.resize(shape);
    std::memcpy(chunk.data(), logits.data() + done * classes,
                chunk.numel() * sizeof(float));
    const LossResult r = loss.evaluate(chunk, labels.subspan(done, take));
    loss_sum += r.loss * static_cast<double>(take);
    correct += r.correct;
  }
  TracePoint point;
  point.loss = loss_sum / static_cast<double>(rows);
  point.accuracy = static_cast<double>(correct) / static_cast<double>(rows);
  return point;
}

Evaluator::Evaluator(const NetworkFactory& factory, const Dataset& test,
                     std::size_t eval_samples)
    : net_(factory()), test_(test), rows_(std::min(eval_samples, test.size())) {
  DS_CHECK(net_ != nullptr && net_->finalized(), "factory must finalize");
  DS_CHECK(rows_ > 0, "evaluator needs test samples");
}

TracePoint Evaluator::run_eval() {
  for (std::size_t done = 0; done < rows_; done += kEvalChunk) {
    chunk_.resize(std::min(kEvalChunk, rows_ - done));
    std::iota(chunk_.begin(), chunk_.end(), done);
    gather_batch(test_, chunk_, batch_, labels_);
    const Tensor& out = net_->infer(batch_);
    const Shape shape{rows_, out.dim(1)};
    logits_.resize(shape);
    std::memcpy(logits_.data() + done * out.dim(1), out.data(),
                out.numel() * sizeof(float));
  }
  return reduce_logits(logits_, std::span(test_.labels).first(rows_));
}

TracePoint Evaluator::evaluate(const ParamArena& arena) {
  net_->arena().copy_params_from(arena);
  return run_eval();
}

TracePoint Evaluator::evaluate_packed(std::span<const float> weights) {
  copy(weights, net_->arena().full_params());
  return run_eval();
}

}  // namespace ds
