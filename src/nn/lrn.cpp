#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

#include "nn/layers.hpp"

namespace ds {
namespace {

// acc[i] = Σ_{cc=lo..hi} f(src[cc·hw + i]), f = square or identity. Rows are
// outer and i inner so the loop vectorises, but every acc[i] still sees its
// terms in ascending cc order through the same `acc += v * v` expression as
// a per-element loop, so each partial sum rounds (and FMA-contracts) the same.
template <bool kSquare>
void window_sum(const float* src, std::size_t hw, long lo, long hi,
                float* __restrict acc) {
  std::fill(acc, acc + hw, 0.0f);
  for (long cc = lo; cc <= hi; ++cc) {
    const float* __restrict row = src + static_cast<std::size_t>(cc) * hw;
    for (std::size_t i = 0; i < hw; ++i) {
      const float v = row[i];
      if constexpr (kSquare) {
        acc[i] += v * v;
      } else {
        acc[i] += v;
      }
    }
  }
}

// Channel c's window [lo, hi], clipped to the channels that exist.
std::pair<long, long> channel_window(std::size_t c, std::size_t channels,
                                     long half) {
  return {std::max<long>(0, static_cast<long>(c) - half),
          std::min<long>(static_cast<long>(channels) - 1,
                         static_cast<long>(c) + half)};
}

// s[i] = k + (α/n)·Σ x² over channel c's window, for one row of one sample.
// Forward and backward both call this, so backward recomputes forward's bits.
void lrn_scale(const float* xn, std::size_t hw, long lo, long hi, float k,
               float coeff, float* __restrict s) {
  window_sum<true>(xn, hw, lo, hi, s);
  for (std::size_t i = 0; i < hw; ++i) s[i] = k + coeff * s[i];
}

}  // namespace

LocalResponseNorm::LocalResponseNorm(std::size_t size, double alpha,
                                     double beta, double k)
    : size_(size), alpha_(alpha), beta_(beta), k_(k) {
  DS_CHECK(size_ >= 1, "LRN window must be at least 1");
  DS_CHECK(size_ % 2 == 1, "LRN window must be odd (centred)");
  // Every slot starts as the genuine pair for s = k (an all-zero window), so
  // no sentinel is needed: a key match always means the value is exact.
  const float s = static_cast<float>(k_);
  memo_.assign(kPowMemoSlots,
               PowSlot{std::bit_cast<std::uint32_t>(s),
                       std::pow(s, static_cast<float>(-beta_))});
}

std::string LocalResponseNorm::name() const {
  std::ostringstream os;
  os << "lrn n=" << size_ << " a=" << alpha_ << " b=" << beta_;
  return os.str();
}

Shape LocalResponseNorm::output_shape(const Shape& input) const {
  DS_CHECK(input.rank() == 4, "lrn input must be NCHW");
  return input;
}

void LocalResponseNorm::forward_impl(const Tensor& x, Tensor& y, bool train) {
  const std::size_t batch = x.dim(0), channels = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  // Backward reads s^{−β} per element; inference forms each row's in its
  // output row instead.
  if (train) scale_.resize(x.numel());
  const long half = static_cast<long>(size_ / 2);
  const float coeff = static_cast<float>(alpha_ / static_cast<double>(size_));
  const float k = static_cast<float>(k_);
  const float nb = static_cast<float>(-beta_);
  PowSlot* memo = memo_.data();

  for (std::size_t n = 0; n < batch; ++n) {
    const float* xn = x.data() + n * channels * hw;
    float* yn = y.data() + n * channels * hw;
    for (std::size_t c = 0; c < channels; ++c) {
      const auto [lo, hi] = channel_window(c, channels, half);
      float* pr = train ? scale_.data() + (n * channels + c) * hw : yn + c * hw;
      lrn_scale(xn, hw, lo, hi, k, coeff, pr);
      // s → s^{−β}. powf is pure, so a memo keyed on the exact bits of s
      // returns exactly what the call would.
      for (std::size_t i = 0; i < hw; ++i) {
        const float s = pr[i];
        const auto bits = std::bit_cast<std::uint32_t>(s);
        PowSlot& slot = memo[bits & (kPowMemoSlots - 1)];
        if (slot.key != bits) slot = PowSlot{bits, std::pow(s, nb)};
        pr[i] = slot.value;
      }
      const float* xr = xn + c * hw;
      float* yr = yn + c * hw;
      for (std::size_t i = 0; i < hw; ++i) yr[i] = xr[i] * pr[i];
    }
  }
}

void LocalResponseNorm::backward_impl(const Tensor& x, const Tensor& y,
                                      const Tensor& dy, Tensor& dx) {
  const std::size_t batch = x.dim(0), channels = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  const long half = static_cast<long>(size_ / 2);
  const float coeff = static_cast<float>(alpha_ / static_cast<double>(size_));
  const float k = static_cast<float>(k_);
  const float b = static_cast<float>(beta_);
  AlignedBuffer& ws = scratch().kernel;  // one sample's s, then dy·y/s
  ws.ensure(channels * hw);
  float* t = ws.data();

  // dL/dx[c] = dy[c]·s[c]^{-β} − 2·(α/n)·β·x[c]·Σ_{c'∋c} dy[c']·y[c']/s[c']
  for (std::size_t n = 0; n < batch; ++n) {
    const std::size_t base = n * channels * hw;
    const float* xn = x.data() + base;
    const float* yn = y.data() + base;
    const float* gn = dy.data() + base;
    const float* pn = scale_.data() + base;
    float* on = dx.data() + base;
    for (std::size_t c = 0; c < channels; ++c) {
      const auto [lo, hi] = channel_window(c, channels, half);
      lrn_scale(xn, hw, lo, hi, k, coeff, t + c * hw);
    }
    for (std::size_t j = 0; j < channels * hw; ++j) {
      t[j] = gn[j] * yn[j] / t[j];
    }
    for (std::size_t c = 0; c < channels; ++c) {
      const auto [lo, hi] = channel_window(c, channels, half);
      // Channels whose window CONTAINS c (symmetric window ⇒ same range).
      window_sum<false>(t, hw, lo, hi, on + c * hw);
      for (std::size_t i = 0; i < hw; ++i) {
        const std::size_t idx = c * hw + i;
        const float cross = on[idx];
        on[idx] = gn[idx] * pn[idx] - 2.0f * coeff * b * xn[idx] * cross;
      }
    }
  }
}

double LocalResponseNorm::flops_per_sample(const Shape& input) const {
  // window sum-of-squares + pow, forward and backward.
  return sample_numel(input) * (2.0 * static_cast<double>(size_) + 20.0) * 2.0;
}

}  // namespace ds
