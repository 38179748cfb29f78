// Register-blocked direct convolution for the 3×3/stride-1/pad-1 family —
// the layer shape every conv in the AlexNet/VGG/GoogLeNet/ResNet zoo uses
// past the stem (Das et al. 1602.06709: hand-blocked direct convolution,
// not lowering, is what makes KNL competitive for training).
//
// Unlike im2col, which materialises a K²-times-larger column matrix on the
// forward AND backward paths, the direct kernels read activations once from
// a zero-padded, lane-aligned *blocked* layout (BlockedLayout below) and
// write NCHW outputs in place:
//
//   * forward       — v16sf accumulators over 16 output columns, register-
//     blocked 4 output channels deep so every activation vector load feeds
//     4 FMAs; weights are read in their native [F][C][3][3] arena order.
//   * backward/data — the same kernel run as a full correlation: dY in the
//     blocked layout, weights rotated 180° and transposed to [C][F][3][3]
//     (the caller transforms them into arena scratch).
//   * backward/weights — per (f,c,kh,kw) vector dot-products over whole
//     dY×X planes (both already blocked, so edge taps multiply zeros
//     instead of branching), one horizontal sum per plane.
//
// Determinism contract: every output element is reduced in a fixed serial
// order (c→kh→kw for outputs, n→rows→lanes for weight gradients), and the
// threaded path (kernel_config().gemm_threads > 1) only ever partitions
// whole outputs — images for forward/data, filter channels for weights —
// so results are bitwise identical to serial at any thread count, matching
// the packed GEMM's contract (DESIGN.md §7).
#pragma once

#include <cstddef>

#include "tensor/im2col.hpp"

namespace ds {

/// Vector width of the blocked activation layout, in floats. Matches the
/// v16sf micro-kernel rows of the packed GEMM.
inline constexpr std::size_t kConvLanes = 16;

/// Geometry of one image in the blocked activation layout: the NCHW plane
/// grown by a `pad`-wide zero border, rows padded to a kConvLanes multiple
/// with ≥ kConvLanes floats of zero slack (so 16-wide unaligned loads can
/// slide past the right edge without branches). Rows are 64-byte aligned
/// whenever the base pointer is.
struct BlockedLayout {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t pad = 0;

  std::size_t rows() const { return height + 2 * pad; }
  std::size_t row_floats() const {
    const std::size_t need = width + 2 * pad + kConvLanes;
    return (need + kConvLanes - 1) / kConvLanes * kConvLanes;
  }
  std::size_t plane_floats() const { return rows() * row_floats(); }
  std::size_t image_floats() const { return channels * plane_floats(); }

  /// The layout the direct kernels want for this conv's input.
  static BlockedLayout for_conv(const ConvGeom& g) {
    return BlockedLayout{g.channels, g.height, g.width, g.pad};
  }
};

/// True iff the direct kernels can run this geometry.
inline bool direct_conv_supported(const ConvGeom& g) {
  return g.kernel == 3 && g.stride == 1 && g.pad == 1;
}

/// Forward: y[f][h][w] = Σ_c Σ_kh Σ_kw W[f][c][kh][kw] · x[c][h+kh-1][w+kw-1]
/// (+ bias[f] when non-null) for every image in the batch. `x_blocked` is
/// `batch` consecutive BlockedLayout images, `w` is [filters][C][3][3],
/// `y` is NCHW [batch][filters][H][W] and is fully overwritten. Also the
/// backward/data pass when called with dY as input and rotated weights.
void direct_conv3x3_forward(const BlockedLayout& in, std::size_t batch,
                            std::size_t filters, const float* x_blocked,
                            const float* w, const float* bias, float* y);

/// Backward/weights: dW[f][c][kh][kw] += Σ_n Σ_h Σ_w dY[n][f][h][w] ·
/// x[n][c][h+kh-1][w+kw-1] and db[f] += Σ dY[n][f]. Both activations come
/// in the blocked layout (dy_blocked uses the same BlockedLayout as the
/// input — the pad border holds zeros). dW/db are accumulated into.
void direct_conv3x3_backward_weights(const BlockedLayout& in,
                                     std::size_t batch, std::size_t filters,
                                     const float* x_blocked,
                                     const float* dy_blocked, float* dw,
                                     float* db);

/// Rotate+transpose weights for the backward/data correlation:
/// w_rot[c][f][kh][kw] = w[f][c][2-kh][2-kw]. `w` is [filters][C][3][3],
/// `w_rot` holds [C][filters][3][3].
void rotate_conv3x3_weights(std::size_t filters, std::size_t channels,
                            const float* w, float* w_rot);

}  // namespace ds
