#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace ds {
namespace {

// Shared softmax pass; when dlogits != nullptr the gradient is emitted.
LossResult softmax_xent(const Tensor& logits,
                        std::span<const std::int32_t> labels,
                        Tensor* dlogits) {
  DS_CHECK(logits.rank() == 2, "loss expects N×C logits");
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  DS_CHECK(labels.size() == batch,
           "labels " << labels.size() << " vs batch " << batch);
  if (dlogits != nullptr) dlogits->resize(logits.shape());

  LossResult result;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * classes;
    const std::int32_t label = labels[n];
    DS_CHECK(label >= 0 && static_cast<std::size_t>(label) < classes,
             "label " << label << " out of " << classes << " classes");

    float max_logit = row[0];
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > max_logit) {
        max_logit = row[c];
        argmax = c;
      }
    }
    if (argmax == static_cast<std::size_t>(label)) ++result.correct;

    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      denom += std::exp(static_cast<double>(row[c] - max_logit));
    }
    const double log_denom = std::log(denom);
    result.loss +=
        -(static_cast<double>(row[label] - max_logit) - log_denom);

    if (dlogits != nullptr) {
      float* grad = dlogits->data() + n * classes;
      for (std::size_t c = 0; c < classes; ++c) {
        const double p =
            std::exp(static_cast<double>(row[c] - max_logit)) / denom;
        grad[c] = static_cast<float>(p) * inv_batch;
      }
      grad[label] -= inv_batch;
    }
  }
  result.loss /= static_cast<double>(batch);
  return result;
}

}  // namespace

LossResult SoftmaxCrossEntropy::forward_backward(
    const Tensor& logits, std::span<const std::int32_t> labels,
    Tensor& dlogits) const {
  return softmax_xent(logits, labels, &dlogits);
}

LossResult SoftmaxCrossEntropy::evaluate(
    const Tensor& logits, std::span<const std::int32_t> labels) const {
  return softmax_xent(logits, labels, nullptr);
}

}  // namespace ds
