// Parameter storage for a Network.
//
// The paper (§5.2, "Single-Layer Communication") observes that mainstream
// frameworks allocate each layer's weights separately and send one message
// per layer, paying the network latency α once per layer; packing all layers
// into one contiguous allocation permits a single message per collective and
// contiguous memory access. ParamArena implements both layouts behind one
// interface so the Figure-10 ablation can flip between them:
//
//   PackMode::kPacked   — one AlignedBuffer for all layers (ours)
//   PackMode::kPerLayer — one AlignedBuffer per layer (baseline frameworks)
//
// Either way, each layer gets a (weights, gradients) span pair; in packed
// mode full_params()/full_grads() expose the whole model as a single span,
// which is what the communication layer transfers in one message.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/aligned_buffer.hpp"
#include "tensor/direct_conv.hpp"

namespace ds {

enum class PackMode { kPacked, kPerLayer };

// ---------------------------------------------------------------------------
// NCHW ↔ blocked layout transforms (the enabling refactor for the direct
// convolution kernels — see tensor/direct_conv.hpp for the layout).
//
// Contract: nchw_to_blocked writes EVERY float of the destination — the
// real values, the zero pad border and the lane slack — so a grow-only
// arena scratch never leaks stale data into a kernel, and the kernels never
// branch at an edge. blocked_to_nchw is its exact inverse
// over the interior. Both stream row-by-row in address order (hardware-
// prefetch friendly) with explicit software prefetch of the next source
// row.
// ---------------------------------------------------------------------------

/// Pack `batch` NCHW images (contiguous, channels × height × width each)
/// into consecutive BlockedLayout images at `blocked`.
void nchw_to_blocked(const BlockedLayout& layout, std::size_t batch,
                     const float* nchw, float* blocked);

/// Unpack the interior of `batch` BlockedLayout images back to NCHW.
void blocked_to_nchw(const BlockedLayout& layout, std::size_t batch,
                     const float* blocked, float* nchw);

class ParamArena {
 public:
  ParamArena() = default;

  /// Allocate storage for layers with the given parameter counts.
  ParamArena(const std::vector<std::size_t>& layer_sizes, PackMode mode);

  PackMode mode() const { return mode_; }
  std::size_t layer_count() const { return sizes_.size(); }
  std::size_t total_params() const { return total_; }
  const std::vector<std::size_t>& layer_sizes() const { return sizes_; }

  std::span<float> layer_params(std::size_t layer);
  std::span<float> layer_grads(std::size_t layer);
  std::span<const float> layer_params(std::size_t layer) const;
  std::span<const float> layer_grads(std::size_t layer) const;

  /// Whole-model spans; only valid in packed mode.
  std::span<float> full_params();
  std::span<float> full_grads();
  std::span<const float> full_params() const;
  std::span<const float> full_grads() const;

  /// Grow-only per-layer kernel scratch (blocked activations, rotated
  /// weights). Deliberately OUTSIDE the packed params/grads allocations:
  /// scratch is never communicated, so it must not dilute the
  /// single-message contiguity contract. Buffers start
  /// empty and grow on first use (AlignedBuffer::ensure).
  AlignedBuffer& layer_scratch(std::size_t layer);

  /// Zero every gradient.
  void zero_grads();

  /// Copy all parameter values from another arena of identical geometry
  /// (works across pack modes).
  void copy_params_from(const ParamArena& other);

  /// Copy every weight into `packed` (total_params() floats, layers back to
  /// back) or back from it, layer by layer, so either works in both pack
  /// modes.
  void save_params(std::span<float> packed) const;
  void load_params(std::span<const float> packed);

 private:
  PackMode mode_ = PackMode::kPacked;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> offsets_;  // packed mode
  std::size_t total_ = 0;
  AlignedBuffer packed_params_;
  AlignedBuffer packed_grads_;
  std::vector<AlignedBuffer> per_layer_params_;
  std::vector<AlignedBuffer> per_layer_grads_;
  std::vector<AlignedBuffer> scratch_;  // per-layer kernel scratch
};

}  // namespace ds
