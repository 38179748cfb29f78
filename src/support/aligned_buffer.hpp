// Cache-line/SIMD aligned float storage.
//
// Tensor and ParamArena both sit on AlignedBuffer so that GEMM inner loops
// see 64-byte aligned rows and the packed-parameter layout (single-layer
// communication, paper §5.2) is one contiguous allocation.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <utility>

#include "support/error.hpp"

// Under AddressSanitizer the bytes between a buffer's live size and its
// allocation are poisoned, so a read past numel() that stays inside a
// grow-only buffer's capacity still dies (tests/support_test.cpp).
#if defined(__SANITIZE_ADDRESS__)
#define DS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DS_ASAN 1
#endif
#endif
#ifdef DS_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ds {

inline constexpr std::size_t kAlignment = 64;

/// Owning, 64-byte-aligned, zero-initialised float array. size() is the
/// live element count; capacity() is what the allocation holds.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n) { resize(n); }

  AlignedBuffer(const AlignedBuffer& other) { *this = other; }

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this == &other) return *this;
    resize(other.size_);
    if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(float));
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept { swap(other); }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    swap(other);
    return *this;
  }

  ~AlignedBuffer() {
    set_live(capacity_);
    std::free(data_);
  }

  void swap(AlignedBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
  }

  /// Re-allocates to exactly n floats, zero-filled. Existing contents are
  /// discarded (the library never relies on grow-preserve semantics).
  void resize(std::size_t n) {
    set_live(capacity_);
    std::free(data_);
    data_ = nullptr;
    size_ = capacity_ = 0;
    if (n == 0) return;
    const std::size_t bytes = ((n * sizeof(float) + kAlignment - 1) /
                               kAlignment) * kAlignment;
    data_ = static_cast<float*>(std::aligned_alloc(kAlignment, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
    std::memset(data_, 0, bytes);
    capacity_ = bytes / sizeof(float);
    set_live(n);
  }

  /// Grow-only resize for workspaces and activations: re-allocates only
  /// when n exceeds the capacity, so hot loops whose shapes alternate
  /// (train batch vs eval batch, serving batches of 1–8) stop churning the
  /// allocator. The live size becomes n. Contents are unspecified after
  /// the call, like resize().
  void ensure(std::size_t n) {
    if (n > capacity_) {
      resize(n);
    } else {
      set_live(n);
    }
  }

  void fill(float value) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = value;
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  float& operator[](std::size_t i) {
    DS_DCHECK(i < size_, "AlignedBuffer index " << i << " >= " << size_);
    return data_[i];
  }
  float operator[](std::size_t i) const {
    DS_DCHECK(i < size_, "AlignedBuffer index " << i << " >= " << size_);
    return data_[i];
  }

  std::span<float> span() { return {data_, size_}; }
  std::span<const float> span() const { return {data_, size_}; }

 private:
  // Sets the live size; under ASan, poisons the floats in [n, capacity).
  void set_live(std::size_t n) {
    size_ = n;
#ifdef DS_ASAN
    if (data_ != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(data_, n * sizeof(float));
      ASAN_POISON_MEMORY_REGION(data_ + n, (capacity_ - n) * sizeof(float));
    }
#endif
  }

  float* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace ds
