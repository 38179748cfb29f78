#include "tensor/direct_conv.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/gemm.hpp"
#include "tensor/kernel_pool.hpp"

namespace ds {
namespace {

typedef float v16sf __attribute__((vector_size(64)));
typedef float v16sf_u __attribute__((vector_size(64), aligned(4)));

// By-reference return: a by-value v16sf return trips -Wpsabi on builds
// without 512-bit registers enabled (same workaround as gemm.cpp).
inline const v16sf_u& load_u(const float* p) {
  return *reinterpret_cast<const v16sf_u*>(p);
}

// Write `nw` lanes of acc (+ bias) to dst. The full-width case is one
// unaligned vector store; ragged right edges spill through a scalar loop.
// By-reference acc: a by-value v16sf argument trips -Wpsabi on builds
// without 512-bit registers enabled (same workaround as gemm.cpp).
inline void store_row(float* dst, const v16sf& acc, float bias,
                      std::size_t nw) {
  if (nw == kConvLanes) {
    *reinterpret_cast<v16sf_u*>(dst) = acc + bias;
    return;
  }
  alignas(64) float tmp[kConvLanes];
  *reinterpret_cast<v16sf*>(tmp) = acc;
  for (std::size_t j = 0; j < nw; ++j) dst[j] = tmp[j] + bias;
}

// Fixed-order horizontal sum: lane 0 → 15, sequential adds. Part of the
// determinism contract — the same order no matter how filters are sharded.
inline float hsum_ordered(const v16sf& v) {
  alignas(64) float tmp[kConvLanes];
  *reinterpret_cast<v16sf*>(tmp) = v;
  float s = 0.0f;
  for (std::size_t i = 0; i < kConvLanes; ++i) s += tmp[i];
  return s;
}

}  // namespace

void direct_conv3x3_forward(const BlockedLayout& in, std::size_t batch,
                            std::size_t filters, const float* x_blocked,
                            const float* w, const float* bias, float* y) {
  const std::size_t C = in.channels;
  const std::size_t H = in.height;
  const std::size_t W = in.width;
  const std::size_t rf = in.row_floats();
  const std::size_t plane = in.plane_floats();
  const std::size_t img = in.image_floats();
  const std::size_t out_plane = H * W;  // 3×3/s1/p1 preserves the spatial dims

  const auto run_image = [&](std::size_t n) {
    const float* xi = x_blocked + n * img;
    float* yi = y + n * filters * out_plane;
    std::size_t f0 = 0;
    // 4-deep output-channel register block: every 16-wide activation load
    // feeds four FMAs, amortising the (unaligned) load across filters.
    for (; f0 + 4 <= filters; f0 += 4) {
      for (std::size_t oh = 0; oh < H; ++oh) {
        for (std::size_t ow0 = 0; ow0 < W; ow0 += kConvLanes) {
          v16sf acc0{}, acc1{}, acc2{}, acc3{};
          for (std::size_t c = 0; c < C; ++c) {
            // Output (oh, ow) reads blocked rows oh..oh+2, cols ow..ow+2
            // (the pad offset is baked into the layout).
            const float* xp = xi + c * plane + oh * rf + ow0;
            const float* w0 = w + ((f0 + 0) * C + c) * 9;
            const float* w1 = w + ((f0 + 1) * C + c) * 9;
            const float* w2 = w + ((f0 + 2) * C + c) * 9;
            const float* w3 = w + ((f0 + 3) * C + c) * 9;
            for (std::size_t kh = 0; kh < 3; ++kh) {
              const float* row = xp + kh * rf;
              for (std::size_t kw = 0; kw < 3; ++kw) {
                const v16sf xv = load_u(row + kw);
                const std::size_t t = kh * 3 + kw;
                acc0 += w0[t] * xv;
                acc1 += w1[t] * xv;
                acc2 += w2[t] * xv;
                acc3 += w3[t] * xv;
              }
            }
          }
          const std::size_t nw = std::min(kConvLanes, W - ow0);
          const std::size_t at = oh * W + ow0;
          store_row(yi + (f0 + 0) * out_plane + at, acc0,
                    bias != nullptr ? bias[f0 + 0] : 0.0f, nw);
          store_row(yi + (f0 + 1) * out_plane + at, acc1,
                    bias != nullptr ? bias[f0 + 1] : 0.0f, nw);
          store_row(yi + (f0 + 2) * out_plane + at, acc2,
                    bias != nullptr ? bias[f0 + 2] : 0.0f, nw);
          store_row(yi + (f0 + 3) * out_plane + at, acc3,
                    bias != nullptr ? bias[f0 + 3] : 0.0f, nw);
        }
      }
    }
    for (; f0 < filters; ++f0) {
      for (std::size_t oh = 0; oh < H; ++oh) {
        for (std::size_t ow0 = 0; ow0 < W; ow0 += kConvLanes) {
          v16sf acc{};
          for (std::size_t c = 0; c < C; ++c) {
            const float* xp = xi + c * plane + oh * rf + ow0;
            const float* wf = w + (f0 * C + c) * 9;
            for (std::size_t kh = 0; kh < 3; ++kh) {
              const float* row = xp + kh * rf;
              for (std::size_t kw = 0; kw < 3; ++kw) {
                acc += wf[kh * 3 + kw] * load_u(row + kw);
              }
            }
          }
          const std::size_t nw = std::min(kConvLanes, W - ow0);
          store_row(yi + f0 * out_plane + oh * W + ow0, acc,
                    bias != nullptr ? bias[f0] : 0.0f, nw);
        }
      }
    }
  };
  // Whole images per task: every output element is produced by exactly one
  // task with the serial c→kh→kw reduction order, so any thread count is
  // bitwise identical to serial.
  kernel_parallel_for(batch, kernel_config().gemm_threads, run_image);
}

void direct_conv3x3_backward_weights(const BlockedLayout& in,
                                     std::size_t batch, std::size_t filters,
                                     const float* x_blocked,
                                     const float* dy_blocked, float* dw,
                                     float* db) {
  const std::size_t C = in.channels;
  const std::size_t H = in.height;
  const std::size_t W = in.width;
  const std::size_t pad = in.pad;
  const std::size_t rf = in.row_floats();
  const std::size_t plane = in.plane_floats();
  const std::size_t img = in.image_floats();
  // dY shares the layout geometry (same H/W/pad), just `filters` channels.
  const std::size_t dimg = filters * plane;

  const auto run_filter = [&](std::size_t f) {
    // db[f] = Σ dY[n][f]: lane-wise vector accumulation over every row of
    // every image (slack lanes are zero), one ordered horizontal sum.
    v16sf bacc{};
    for (std::size_t n = 0; n < batch; ++n) {
      const float* dyp = dy_blocked + n * dimg + f * plane + pad * rf + pad;
      for (std::size_t oh = 0; oh < H; ++oh) {
        const float* dyrow = dyp + oh * rf;
        for (std::size_t ow0 = 0; ow0 < W; ow0 += kConvLanes) {
          bacc += load_u(dyrow + ow0);
        }
      }
    }
    db[f] += hsum_ordered(bacc);
    // dW[f][c][kh][kw] = Σ_n Σ_oh Σ_ow dY[oh][ow]·X[oh+kh-1][ow+kw-1]:
    // nine vector accumulators per (f,c) plane pair; every tap multiplies
    // a zero pad/slack lane instead of branching at the edges.
    for (std::size_t c = 0; c < C; ++c) {
      v16sf acc[3][3] = {};
      for (std::size_t n = 0; n < batch; ++n) {
        const float* dyp =
            dy_blocked + n * dimg + f * plane + pad * rf + pad;
        const float* xp = x_blocked + n * img + c * plane;
        for (std::size_t oh = 0; oh < H; ++oh) {
          const float* dyrow = dyp + oh * rf;
          for (std::size_t ow0 = 0; ow0 < W; ow0 += kConvLanes) {
            const v16sf dyv = load_u(dyrow + ow0);
            for (std::size_t kh = 0; kh < 3; ++kh) {
              const float* xrow = xp + (oh + kh) * rf + ow0;
              acc[kh][0] += dyv * load_u(xrow + 0);
              acc[kh][1] += dyv * load_u(xrow + 1);
              acc[kh][2] += dyv * load_u(xrow + 2);
            }
          }
        }
      }
      float* dwp = dw + (f * C + c) * 9;
      for (std::size_t kh = 0; kh < 3; ++kh) {
        for (std::size_t kw = 0; kw < 3; ++kw) {
          dwp[kh * 3 + kw] += hsum_ordered(acc[kh][kw]);
        }
      }
    }
  };
  // Whole filters per task: each dW[f]/db[f] is reduced n-ascending by one
  // task — bitwise identical to serial at any thread count.
  kernel_parallel_for(filters, kernel_config().gemm_threads, run_filter);
}

void rotate_conv3x3_weights(std::size_t filters, std::size_t channels,
                            const float* w, float* w_rot) {
  for (std::size_t f = 0; f < filters; ++f) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* src = w + (f * channels + c) * 9;
      float* dst = w_rot + (c * filters + f) * 9;
      for (std::size_t kh = 0; kh < 3; ++kh) {
        for (std::size_t kw = 0; kw < 3; ++kw) {
          dst[kh * 3 + kw] = src[(2 - kh) * 3 + (2 - kw)];
        }
      }
    }
  }
}

}  // namespace ds
