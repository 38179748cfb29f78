// Shared test helpers: numerical gradient checking, tiny fixtures and a
// bounded rendezvous for thread tests.
#pragma once

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "tensor/tensor.hpp"

namespace ds::testing {

/// `parties` threads meet; arrive() is false if they do not all arrive
/// within 10 s, so a thread that never comes fails the test instead of
/// hanging it.
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t parties) : parties_(parties) {}

  bool arrive() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == parties_) all_.notify_all();
    return all_.wait_for(lock, std::chrono::seconds(10),
                         [this] { return arrived_ >= parties_; });
  }

 private:
  const std::size_t parties_;
  std::mutex mutex_;
  std::condition_variable all_;
  std::size_t arrived_ = 0;
};

/// Fill a tensor with small deterministic pseudo-random values.
inline void fill_random(Tensor& t, Rng& rng, double scale = 0.5) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
}

/// Scalar loss used by gradient checks: L = Σ c_i * y_i with fixed random
/// coefficients, so dL/dy is a known constant vector.
struct ProbeLoss {
  std::vector<float> coeffs;

  explicit ProbeLoss(std::size_t n, std::uint64_t seed = 99) {
    Rng rng(seed);
    coeffs.resize(n);
    for (auto& c : coeffs) c = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  double value(const Tensor& y) const {
    double loss = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      loss += static_cast<double>(coeffs[i]) * static_cast<double>(y[i]);
    }
    return loss;
  }

  Tensor gradient(const Shape& shape) const {
    Tensor dy(shape);
    for (std::size_t i = 0; i < dy.numel(); ++i) dy[i] = coeffs[i];
    return dy;
  }
};

struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
};

/// Compare a layer's analytic input- and parameter-gradients against
/// central finite differences of the ProbeLoss.
/// Returns the worst absolute/relative error across all checked entries.
inline GradCheckResult grad_check_layer(Layer& layer, const Shape& in_shape,
                                        std::uint64_t seed = 123,
                                        double eps = 1e-3) {
  Rng rng(seed);
  Tensor x(in_shape);
  fill_random(x, rng);

  std::vector<float> params(layer.param_count());
  std::vector<float> grads(layer.param_count());
  layer.bind(params, grads);
  Rng init_rng(seed + 1);
  layer.init_params(init_rng);
  // Jitter every parameter: zero-initialised biases feeding ReLUs can land
  // pre-activations EXACTLY on the kink (e.g. a dead receptive field at a
  // padded corner), where central differences measure the average of the
  // two one-sided slopes instead of the derivative the layer reports.
  for (auto& p : params) {
    p += static_cast<float>(init_rng.uniform(0.02, 0.08)) *
         (init_rng.uniform() < 0.5 ? -1.0f : 1.0f);
  }

  // backward() reads state only a training forward keeps (argmax, stage
  // activations); the finite differences below compare outputs only.
  Tensor y;
  layer.forward(x, y, /*train=*/true);
  const ProbeLoss probe(y.numel(), seed + 2);
  const Tensor dy = probe.gradient(y.shape());

  Tensor dx;
  for (auto& g : grads) g = 0.0f;
  layer.backward(x, y, dy, dx);

  GradCheckResult result;
  auto record = [&](double analytic, double numeric) {
    const double abs_err = std::fabs(analytic - numeric);
    const double denom =
        std::max({std::fabs(analytic), std::fabs(numeric), 1e-4});
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
  };

  Tensor y_plus, y_minus;
  // Input gradient, every element (inputs are small in tests).
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + static_cast<float>(eps);
    layer.forward(x, y_plus, false);
    const double lp = probe.value(y_plus);
    x[i] = saved - static_cast<float>(eps);
    layer.forward(x, y_minus, false);
    const double lm = probe.value(y_minus);
    x[i] = saved;
    record(dx[i], (lp - lm) / (2.0 * eps));
  }
  // Parameter gradient.
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float saved = params[i];
    params[i] = saved + static_cast<float>(eps);
    layer.forward(x, y_plus, false);
    const double lp = probe.value(y_plus);
    params[i] = saved - static_cast<float>(eps);
    layer.forward(x, y_minus, false);
    const double lm = probe.value(y_minus);
    params[i] = saved;
    record(grads[i], (lp - lm) / (2.0 * eps));
  }
  return result;
}

}  // namespace ds::testing
