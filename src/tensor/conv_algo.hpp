// Convolution algorithm selection (ROADMAP item 4: beat im2col).
//
// Conv2D dispatches each forward/backward over one of two kernels:
//
//   kIm2col   — lower to a column matrix, one fat GEMM per layer (PR 2's
//               batched lowering). Works for every kernel/stride/pad; pays
//               K²× the input's memory traffic in layout churn.
//   kDirect   — register-blocked direct convolution over the blocked
//               activation layout (direct_conv.hpp), 3×3/stride-1/pad-1
//               family only. No lowering traffic; forward and both backward
//               passes.
//
// The per-thread kernel_config().conv_algo pins a kernel (benches, property
// tests; a ReplicaSet copies the caller's KernelConfig into its worker
// tasks, so this reaches the modeled workers too); kAuto leaves the choice
// to the shape heuristic choose_conv_algo(). Both kernels are
// bitwise-deterministic under kernel_config().gemm_threads > 1, like the
// packed GEMM (DESIGN.md §7): parallel partitions never change any
// output's reduction order.
#pragma once

#include <cstddef>

namespace ds {

struct ConvGeom;

enum class ConvAlgo { kAuto, kIm2col, kDirect };

const char* conv_algo_name(ConvAlgo a);

/// True when `a` can run this geometry at all (kDirect gates on the
/// 3×3/stride-1/pad-1 family; kIm2col takes everything).
bool conv_algo_supported(ConvAlgo a, const ConvGeom& g);

/// The kAuto shape heuristic: direct for the 3×3/stride-1/pad-1 family at
/// planes of 12×12 and up, im2col for everything else.
ConvAlgo choose_conv_algo(const ConvGeom& g, std::size_t out_channels);

/// Fully resolve: thread choice → heuristic, then fall back to kIm2col if
/// the pick cannot run `g`.
ConvAlgo resolve_conv_algo(const ConvGeom& g, std::size_t out_channels);

}  // namespace ds
