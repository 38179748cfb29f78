#include "nn/param_arena.hpp"

#include <cstring>

#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace ds {

void nchw_to_blocked(const BlockedLayout& layout, std::size_t batch,
                     const float* nchw, float* blocked) {
  const std::size_t h = layout.height;
  const std::size_t w = layout.width;
  const std::size_t pad = layout.pad;
  const std::size_t rf = layout.row_floats();
  const std::size_t rows = layout.rows();
  const std::size_t plane = layout.plane_floats();
  const std::size_t img = layout.image_floats();
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < layout.channels; ++c) {
      const float* src = nchw + (n * layout.channels + c) * h * w;
      float* dst = blocked + n * img + c * plane;
      std::memset(dst, 0, pad * rf * sizeof(float));
      for (std::size_t r = 0; r < h; ++r) {
        float* row = dst + (pad + r) * rf;
        const float* srow = src + r * w;
        if (r + 1 < h) __builtin_prefetch(srow + w);
        std::memset(row, 0, pad * sizeof(float));
        std::memcpy(row + pad, srow, w * sizeof(float));
        std::memset(row + pad + w, 0, (rf - pad - w) * sizeof(float));
      }
      std::memset(dst + (pad + h) * rf, 0,
                  (rows - pad - h) * rf * sizeof(float));
    }
  }
}

void blocked_to_nchw(const BlockedLayout& layout, std::size_t batch,
                     const float* blocked, float* nchw) {
  const std::size_t h = layout.height;
  const std::size_t w = layout.width;
  const std::size_t pad = layout.pad;
  const std::size_t rf = layout.row_floats();
  const std::size_t plane = layout.plane_floats();
  const std::size_t img = layout.image_floats();
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < layout.channels; ++c) {
      const float* src = blocked + n * img + c * plane;
      float* dst = nchw + (n * layout.channels + c) * h * w;
      for (std::size_t r = 0; r < h; ++r) {
        const float* srow = src + (pad + r) * rf + pad;
        if (r + 1 < h) __builtin_prefetch(srow + rf);
        std::memcpy(dst + r * w, srow, w * sizeof(float));
      }
    }
  }
}

ParamArena::ParamArena(const std::vector<std::size_t>& layer_sizes,
                       PackMode mode)
    : mode_(mode), sizes_(layer_sizes) {
  offsets_.reserve(sizes_.size());
  for (const std::size_t s : sizes_) {
    offsets_.push_back(total_);
    total_ += s;
  }
  if (mode_ == PackMode::kPacked) {
    packed_params_.resize(total_);
    packed_grads_.resize(total_);
  } else {
    per_layer_params_.reserve(sizes_.size());
    per_layer_grads_.reserve(sizes_.size());
    for (const std::size_t s : sizes_) {
      per_layer_params_.emplace_back(s);
      per_layer_grads_.emplace_back(s);
    }
  }
}

std::span<float> ParamArena::layer_params(std::size_t layer) {
  DS_CHECK(layer < sizes_.size(), "layer " << layer << " out of range");
  if (mode_ == PackMode::kPacked) {
    return packed_params_.span().subspan(offsets_[layer], sizes_[layer]);
  }
  return per_layer_params_[layer].span();
}

std::span<float> ParamArena::layer_grads(std::size_t layer) {
  DS_CHECK(layer < sizes_.size(), "layer " << layer << " out of range");
  if (mode_ == PackMode::kPacked) {
    return packed_grads_.span().subspan(offsets_[layer], sizes_[layer]);
  }
  return per_layer_grads_[layer].span();
}

std::span<const float> ParamArena::layer_params(std::size_t layer) const {
  return const_cast<ParamArena*>(this)->layer_params(layer);
}

std::span<const float> ParamArena::layer_grads(std::size_t layer) const {
  return const_cast<ParamArena*>(this)->layer_grads(layer);
}

std::span<float> ParamArena::full_params() {
  DS_CHECK(mode_ == PackMode::kPacked,
           "full_params() requires packed layout (Figure 10 baseline uses "
           "per-layer buffers)");
  return packed_params_.span();
}

std::span<float> ParamArena::full_grads() {
  DS_CHECK(mode_ == PackMode::kPacked,
           "full_grads() requires packed layout");
  return packed_grads_.span();
}

std::span<const float> ParamArena::full_params() const {
  return const_cast<ParamArena*>(this)->full_params();
}

std::span<const float> ParamArena::full_grads() const {
  return const_cast<ParamArena*>(this)->full_grads();
}

void ParamArena::zero_grads() {
  if (mode_ == PackMode::kPacked) {
    packed_grads_.fill(0.0f);
  } else {
    for (auto& g : per_layer_grads_) g.fill(0.0f);
  }
}

void ParamArena::footprint(Footprint& f) const {
  f.params += Footprint::bytes(packed_params_);
  f.params += Footprint::bytes(packed_grads_);
  for (const auto* buffers : {&per_layer_params_, &per_layer_grads_}) {
    for (const AlignedBuffer& b : *buffers) f.params += Footprint::bytes(b);
  }
  f.scratch += Footprint::bytes(scratch_.kernel);
  for (const Tensor& t : scratch_.inner) f.scratch += Footprint::bytes(t);
}

void ParamArena::copy_params_from(const ParamArena& other) {
  DS_CHECK(other.sizes_ == sizes_, "arena geometry mismatch");
  for (std::size_t l = 0; l < sizes_.size(); ++l) {
    copy(other.layer_params(l), layer_params(l));
  }
}

void ParamArena::save_params(std::span<float> packed) const {
  DS_CHECK(packed.size() == total_, packed.size() << " vs " << total_);
  for (std::size_t l = 0, at = 0; l < sizes_.size(); at += sizes_[l++]) {
    copy(layer_params(l), packed.subspan(at, sizes_[l]));
  }
}

void ParamArena::load_params(std::span<const float> packed) {
  DS_CHECK(packed.size() == total_, packed.size() << " vs " << total_);
  for (std::size_t l = 0, at = 0; l < sizes_.size(); at += sizes_[l++]) {
    copy(packed.subspan(at, sizes_[l]), layer_params(l));
  }
}

}  // namespace ds
