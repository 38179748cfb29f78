#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "nn/layers.hpp"

namespace ds {
namespace {

Shape pooled_shape(const Shape& input, std::size_t kernel, std::size_t stride,
                   std::size_t pad, const char* what) {
  DS_CHECK(input.rank() == 4, what << " input must be NCHW");
  DS_CHECK(input.dim(2) + 2 * pad >= kernel && input.dim(3) + 2 * pad >= kernel,
           what << ": window " << kernel << " larger than " << input.str());
  const std::size_t ho = (input.dim(2) + 2 * pad - kernel) / stride + 1;
  const std::size_t wo = (input.dim(3) + 2 * pad - kernel) / stride + 1;
  return Shape{input.dim(0), input.dim(1), ho, wo};
}

struct PoolGeom {
  long h, w, k, s, pad;
};

// Max-pool windows keep the first strictly greater tap in (kh, kw) order,
// starting from the window's first in-bounds tap, so a window that never
// beats -inf (all -inf, or all NaN) still routes its gradient inside itself.
// Branch-free so ties and NaNs cost no mispredicts.
inline void take(float v, std::uint32_t idx, float& best, std::uint32_t& at) {
  const bool gt = v > best;
  best = gt ? v : best;
  at = gt ? idx : at;
}

// The kernels below write each window's argmax only when kArgmax is set
// (training); inference skips the index stores and argmax_ entirely. The
// max itself does not depend on the index, so both modes are bit-identical.

// One window, taps clamped to the plane (any geometry, borders included).
template <bool kArgmax>
void max_clamped_window(const float* xp, const PoolGeom& g, long ih0, long ow,
                        float* yr, std::uint32_t* ar) {
  const long iw0 = ow * g.s - g.pad;
  const long kh0 = std::max(0L, -ih0), kh1 = std::min(g.k, g.h - ih0);
  const long kw0 = std::max(0L, -iw0), kw1 = std::min(g.k, g.w - iw0);
  float best = -std::numeric_limits<float>::infinity();
  auto at = static_cast<std::uint32_t>((ih0 + kh0) * g.w + iw0 + kw0);
  for (long kh = kh0; kh < kh1; ++kh) {
    for (long kw = kw0; kw < kw1; ++kw) {
      const long idx = (ih0 + kh) * g.w + iw0 + kw;
      take(xp[idx], static_cast<std::uint32_t>(idx), best, at);
    }
  }
  yr[ow] = best;
  if constexpr (kArgmax) ar[ow] = at;
}

// k2 s2 windows [ow_lo, ow_hi) of an output row whose taps all lie inside
// the plane: the taps unroll, so the column loop vectorises.
template <bool kArgmax>
void max_k2s2_windows(const float* xp, const PoolGeom& g, long ih0,
                      long ow_lo, long ow_hi, float* __restrict yr,
                      std::uint32_t* __restrict ar) {
  constexpr long K = 2, S = 2;
  for (long ow = ow_lo; ow < ow_hi; ++ow) {
    const long iw0 = ow * S - g.pad;
    float best = -std::numeric_limits<float>::infinity();
    auto at = static_cast<std::uint32_t>(ih0 * g.w + iw0);
    for (long kh = 0; kh < K; ++kh) {
      for (long kw = 0; kw < K; ++kw) {
        const long idx = (ih0 + kh) * g.w + iw0 + kw;
        take(xp[idx], static_cast<std::uint32_t>(idx), best, at);
      }
    }
    yr[ow] = best;
    if constexpr (kArgmax) ar[ow] = at;
  }
}

// k3 s1 p1 keeps the plane's shape, so output o's taps read input
// o + (kh−1)·w + (kw−1): the full rows [1, h−1) run as one flat vector loop
// over the plane. Their first and last columns wrap into the neighbouring
// rows (reads stay inside the plane); the caller redoes those windows
// clamped.
template <bool kArgmax>
void max_k3s1p1_rows(const float* xp, const PoolGeom& g, float* __restrict yp,
                     std::uint32_t* __restrict ap) {
  constexpr long K = 3, P = 1;
  const long hi = (g.h - P) * g.w - P;
  for (long o = P * g.w + P; o < hi; ++o) {
    float best = -std::numeric_limits<float>::infinity();
    auto at = static_cast<std::uint32_t>(o - P * g.w - P);
    for (long kh = 0; kh < K; ++kh) {
      for (long kw = 0; kw < K; ++kw) {
        const long idx = o + (kh - P) * g.w + kw - P;
        take(xp[idx], static_cast<std::uint32_t>(idx), best, at);
      }
    }
    yp[o] = best;
    if constexpr (kArgmax) ap[o] = at;
  }
}

// Max-pools `planes` planes of x into y (and argmax when kArgmax).
template <bool kArgmax>
void max_pool_planes(const PoolGeom& g, std::size_t planes, long ho, long wo,
                     const float* x, float* y, std::uint32_t* argmax) {
  // Columns [ow_lo, ow_hi) have every kw tap inside the row.
  const long ow_lo = std::min((g.pad + g.s - 1) / g.s, wo);
  const long ow_hi = std::clamp(
      g.w + g.pad - g.k >= 0 ? (g.w + g.pad - g.k) / g.s + 1 : 0, ow_lo, wo);
  // Vectorised interiors for the zoo's two pool shapes, k2 s2 and k3 s1 p1;
  // every other geometry, and every border window, runs clamped.
  const bool k2s2 = g.k == 2 && g.s == 2;
  const bool k3s1p1 = g.k == 3 && g.s == 1 && g.pad == 1;

  for (std::size_t p = 0; p < planes; ++p) {
    const float* xp = x + p * static_cast<std::size_t>(g.h * g.w);
    float* yp = y + p * static_cast<std::size_t>(ho * wo);
    std::uint32_t* ap =
        kArgmax ? argmax + p * static_cast<std::size_t>(ho * wo) : nullptr;
    if (k3s1p1) max_k3s1p1_rows<kArgmax>(xp, g, yp, ap);
    for (long oh = 0; oh < ho; ++oh) {
      const long ih0 = oh * g.s - g.pad;
      float* yr = yp + oh * wo;
      std::uint32_t* ar = kArgmax ? ap + oh * wo : nullptr;
      long ow = 0;
      if ((k2s2 || k3s1p1) && ih0 >= 0 && ih0 + g.k <= g.h) {
        for (; ow < ow_lo; ++ow) {
          max_clamped_window<kArgmax>(xp, g, ih0, ow, yr, ar);
        }
        if (k2s2) max_k2s2_windows<kArgmax>(xp, g, ih0, ow_lo, ow_hi, yr, ar);
        ow = ow_hi;
      }
      for (; ow < wo; ++ow) max_clamped_window<kArgmax>(xp, g, ih0, ow, yr, ar);
    }
  }
}

}  // namespace

// -------------------------------- MaxPool ----------------------------------

MaxPool2D::MaxPool2D(std::size_t kernel, std::size_t stride, std::size_t pad)
    : kernel_(kernel), stride_(stride), pad_(pad) {
  DS_CHECK(kernel_ > 0 && stride_ > 0, "pool dims must be positive");
  DS_CHECK(pad_ < kernel_, "pool pad must be smaller than kernel");
}

std::string MaxPool2D::name() const {
  std::ostringstream os;
  os << "maxpool k" << kernel_ << " s" << stride_ << " p" << pad_;
  return os.str();
}

Shape MaxPool2D::output_shape(const Shape& input) const {
  const Shape out = pooled_shape(input, kernel_, stride_, pad_, "maxpool");
  // The argmax stores in-plane input indices as uint32.
  DS_CHECK(input.dim(2) * input.dim(3) <= UINT32_MAX,
           "maxpool plane " << input.str() << " too large");
  return out;
}

void MaxPool2D::forward_impl(const Tensor& x, Tensor& y, bool train) {
  const std::size_t planes = x.dim(0) * x.dim(1);
  const PoolGeom g{static_cast<long>(x.dim(2)), static_cast<long>(x.dim(3)),
                   static_cast<long>(kernel_), static_cast<long>(stride_),
                   static_cast<long>(pad_)};
  const long ho = static_cast<long>(y.dim(2));
  const long wo = static_cast<long>(y.dim(3));
  if (train) {
    argmax_.resize(y.numel());  // grow-only capacity, no realloc once warm
    max_pool_planes<true>(g, planes, ho, wo, x.data(), y.data(),
                          argmax_.data());
  } else {
    max_pool_planes<false>(g, planes, ho, wo, x.data(), y.data(), nullptr);
  }
}

void MaxPool2D::backward_impl(const Tensor& x, const Tensor& y,
                              const Tensor& dy, Tensor& dx) {
  dx.zero();
  const std::size_t planes = x.dim(0) * x.dim(1);
  const std::size_t plane_in = x.dim(2) * x.dim(3);
  const std::size_t plane_out = y.dim(2) * y.dim(3);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* g = dy.data() + p * plane_out;
    const std::uint32_t* a = argmax_.data() + p * plane_out;
    float* out = dx.data() + p * plane_in;
    for (std::size_t i = 0; i < plane_out; ++i) out[a[i]] += g[i];
  }
}

double MaxPool2D::flops_per_sample(const Shape& input) const {
  return sample_numel(output_shape(input)) *
         static_cast<double>(kernel_ * kernel_);
}

// -------------------------------- AvgPool ----------------------------------

AvgPool2D::AvgPool2D(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  DS_CHECK(kernel_ > 0 && stride_ > 0, "pool dims must be positive");
}

std::string AvgPool2D::name() const {
  std::ostringstream os;
  os << "avgpool k" << kernel_ << " s" << stride_;
  return os.str();
}

Shape AvgPool2D::output_shape(const Shape& input) const {
  return pooled_shape(input, kernel_, stride_, 0, "avgpool");
}

void AvgPool2D::forward_impl(const Tensor& x, Tensor& y, bool /*train*/) {
  const std::size_t planes = x.dim(0) * x.dim(1);
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t ho = y.dim(2), wo = y.dim(3);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* xp = x.data() + p * h * w;
    float* yp = y.data() + p * ho * wo;
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        float acc = 0.0f;
        for (std::size_t kh = 0; kh < kernel_; ++kh) {
          const float* row = xp + (oh * stride_ + kh) * w + ow * stride_;
          for (std::size_t kw = 0; kw < kernel_; ++kw) acc += row[kw];
        }
        yp[oh * wo + ow] = acc * inv;
      }
    }
  }
}

void AvgPool2D::backward_impl(const Tensor& x, const Tensor& y,
                              const Tensor& dy, Tensor& dx) {
  dx.zero();
  const std::size_t planes = x.dim(0) * x.dim(1);
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t ho = y.dim(2), wo = y.dim(3);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* gp = dy.data() + p * ho * wo;
    float* dxp = dx.data() + p * h * w;
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        const float g = gp[oh * wo + ow] * inv;
        for (std::size_t kh = 0; kh < kernel_; ++kh) {
          float* row = dxp + (oh * stride_ + kh) * w + ow * stride_;
          for (std::size_t kw = 0; kw < kernel_; ++kw) row[kw] += g;
        }
      }
    }
  }
}

double AvgPool2D::flops_per_sample(const Shape& input) const {
  return sample_numel(output_shape(input)) *
         static_cast<double>(kernel_ * kernel_);
}

}  // namespace ds
