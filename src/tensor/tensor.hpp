// Dense row-major float tensor (up to 4 dimensions, NCHW convention for
// image batches). Storage is 64-byte aligned; shape is value-semantic.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "support/aligned_buffer.hpp"
#include "support/error.hpp"

namespace ds {

/// Shape of a tensor; rank 0 means scalar-less empty tensor.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {}

  std::size_t rank() const { return dims_.size(); }

  std::size_t dim(std::size_t i) const {
    DS_CHECK(i < dims_.size(), "shape dim " << i << " out of rank " << rank());
    return dims_[i];
  }

  std::size_t numel() const {
    std::size_t n = 1;
    for (const std::size_t d : dims_) n *= d;
    return dims_.empty() ? 0 : n;
  }

  bool operator==(const Shape&) const = default;

  const std::vector<std::size_t>& dims() const { return dims_; }

  std::string str() const;

 private:
  std::vector<std::size_t> dims_;
};

/// Owning dense tensor.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape) : shape_(std::move(shape)) {
    storage_.resize(shape_.numel());
  }
  Tensor(std::initializer_list<std::size_t> dims) : Tensor(Shape(dims)) {}

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return storage_.size(); }
  /// Floats the storage holds (grow-only, so at least numel()).
  std::size_t capacity() const { return storage_.capacity(); }
  std::size_t rank() const { return shape_.rank(); }
  std::size_t dim(std::size_t i) const { return shape_.dim(i); }

  float* data() { return storage_.data(); }
  const float* data() const { return storage_.data(); }
  std::span<float> span() { return storage_.span(); }
  std::span<const float> span() const { return storage_.span(); }

  float& operator[](std::size_t i) { return storage_[i]; }
  float operator[](std::size_t i) const { return storage_[i]; }

  /// 2-D access (rank must be 2).
  float& at(std::size_t r, std::size_t c) {
    DS_DCHECK(rank() == 2, "at(r,c) needs rank 2, have " << rank());
    return storage_[r * dim(1) + c];
  }
  float at(std::size_t r, std::size_t c) const {
    DS_DCHECK(rank() == 2, "at(r,c) needs rank 2, have " << rank());
    return storage_[r * dim(1) + c];
  }

  /// NCHW access (rank must be 4).
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    DS_DCHECK(rank() == 4, "at(n,c,h,w) needs rank 4, have " << rank());
    return storage_[((n * dim(1) + c) * dim(2) + h) * dim(3) + w];
  }
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    DS_DCHECK(rank() == 4, "at(n,c,h,w) needs rank 4, have " << rank());
    return storage_[((n * dim(1) + c) * dim(2) + h) * dim(3) + w];
  }

  void fill(float v) { storage_.fill(v); }
  void zero() { storage_.fill(0.0f); }

  /// Give the tensor `shape`, reallocating only when its element count
  /// outgrows the storage (AlignedBuffer::ensure). Contents are unspecified
  /// afterwards: every layer overwrites its output in full. This replaces
  /// `if (y.shape() != s) y = Tensor(s)`, which freed, reallocated and
  /// zero-filled on every batch-size change.
  void resize(const Shape& shape) {
    if (shape_ == shape) return;
    storage_.ensure(shape.numel());
    shape_ = shape;
  }

  /// Reshape in place; element count must be preserved.
  void reshape(Shape shape) {
    DS_CHECK(shape.numel() == numel(),
             "reshape " << shape_.str() << " -> " << shape.str()
                        << " changes element count");
    shape_ = std::move(shape);
  }

 private:
  Shape shape_;
  AlignedBuffer storage_;
};

}  // namespace ds
