// Single-precision GEMM for row-major matrices, the compute kernel behind
// convolution (im2col) and fully-connected layers.
//
//   C = alpha * op(A) * op(B) + beta * C        (+ optional bias epilogue)
//
// with op() selected by Transpose flags. The implementation is a packed,
// three-level blocked kernel in the BLIS/GotoBLAS mould:
//
//   * a register micro-kernel computing a kGemmMR × kGemmNR accumulator tile,
//     written with GCC/Clang vector extensions so `-O3 -march=native` lowers
//     it to the widest FMA the machine has (one 16-float row per vector);
//   * cache blocking over (kGemmMC, kGemmKC, kGemmNC) panels so the packed
//     A block lives in L2 and each B panel streams through L1;
//   * packing of op(A)/op(B) panels into contiguous 64-byte-aligned
//     per-thread workspaces that grow monotonically and are reused across
//     calls — no allocation on the hot path after warm-up.
//
// All four transpose combinations go through the same packed kernel (the
// packing routines absorb the index swap), so there is exactly one code path
// to test and tune. An opt-in threaded path shards the M/N micro-tile grid
// across a dedicated compute ThreadPool with a deterministic partition: every
// output tile is computed by exactly one task, in the same k-block reduction
// order as the serial kernel, so results are bitwise identical to serial at
// any thread count. All flop counting for the virtual-time compute model
// uses gemm_flops().
#pragma once

#include <cstddef>

#include "tensor/conv_algo.hpp"

namespace ds {

enum class Transpose { kNo, kYes };

// Blocking parameters, exported so tests can probe every boundary (tile±1)
// and benches can label shapes. kGemmMC is a multiple of kGemmMR, kGemmNC a
// multiple of kGemmNR; kGemmKC × kGemmNR floats of packed B fit in L1 and a
// kGemmMC × kGemmKC packed A block fits in L2.
inline constexpr std::size_t kGemmMR = 6;
inline constexpr std::size_t kGemmNR = 16;
inline constexpr std::size_t kGemmMC = 96;
inline constexpr std::size_t kGemmKC = 256;
inline constexpr std::size_t kGemmNC = 2048;

/// Optional bias fused into the C write-back epilogue: applied to each output
/// tile right after its final k-block lands, while the tile is cache-hot.
/// row_bias[i] is added to every element of C row i (conv: one bias per
/// output channel); col_bias[j] to every element of column j (dense: one
/// bias per output feature). Both may be set. Pointers must stay valid for
/// the duration of the call and cover [0, m) / [0, n).
struct GemmEpilogue {
  const float* row_bias = nullptr;
  const float* col_bias = nullptr;
};

/// Per-thread kernel tuning knobs. gemm_threads is the number of compute
/// threads a gemm() issued from *this* thread may use; 1 (the default) is
/// the serial kernel. The knob is thread-local on purpose: fabric / Hogwild
/// worker threads each start at the default of 1, so intra-GEMM threading
/// never oversubscribes a machine already running one worker per core —
/// only top-level callers (benches, single-process training) opt in.
struct KernelConfig {
  std::size_t gemm_threads = 1;
  /// Convolution kernel override for Conv2D layers whose own algo is kAuto
  /// (benches and property tests flip this to pin a path). kAuto defers to
  /// the shape heuristic — see conv_algo.hpp.
  ConvAlgo conv_algo = ConvAlgo::kAuto;
};

/// Mutable reference to the calling thread's kernel config.
KernelConfig& kernel_config();

/// Row-major GEMM. A is m×k (or k×m when transposed), B is k×n (or n×k),
/// C is m×n. Leading dimensions are the row strides of the *stored* arrays.
void gemm(Transpose trans_a, Transpose trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc);

/// Full-control overload with a fused bias epilogue.
void gemm(Transpose trans_a, Transpose trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc, const GemmEpilogue& epilogue);

/// Convenience overload: compact leading dimensions.
void gemm(Transpose trans_a, Transpose trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

/// Number of floating point operations (multiply+add counted separately)
/// performed by one gemm call of the given dimensions.
constexpr double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace ds
