#include "nn/layer.hpp"

namespace ds {

double Layer::sample_numel(const Shape& shape) {
  double n = 1.0;
  for (std::size_t i = 1; i < shape.rank(); ++i) {
    n *= static_cast<double>(shape.dim(i));
  }
  return n;
}

LayerScratch& Layer::scratch() {
  if (scratch_ == nullptr) {
    own_scratch_ = std::make_unique<LayerScratch>();
    scratch_ = own_scratch_.get();
  }
  return *scratch_;
}

void Layer::forward(const Tensor& x, Tensor& y, bool train) {
  trained_ = false;
  // Shape construction heap-allocates; memoize so the steady-state hot loop
  // (fixed or alternating train/eval batch shapes) does no allocation.
  if (x.shape() != in_shape_) {
    out_shape_ = output_shape(x.shape());
    in_shape_ = x.shape();
  }
  y.resize(out_shape_);
  forward_impl(x, y, train);
  trained_ = train;
}

void Layer::check_backward(const Tensor& x, const Tensor& y,
                           const Tensor& dy) const {
  DS_CHECK(trained_,
           name() << ": backward before forward (the last forward must be "
                     "a training one)");
  DS_CHECK(x.shape() == in_shape_, name() << ": backward x " << x.shape().str()
                                          << " is not the forward input "
                                          << in_shape_.str());
  DS_CHECK(y.shape() == out_shape_ && dy.shape() == out_shape_,
           name() << ": backward y " << y.shape().str() << " and dy "
                  << dy.shape().str() << " must be " << out_shape_.str());
}

void Layer::backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) {
  check_backward(x, y, dy);
  dx.resize(in_shape_);
  backward_impl(x, y, dy, dx);
}

void Layer::backward_params(const Tensor& x, const Tensor& y,
                            const Tensor& dy, Tensor& scratch) {
  check_backward(x, y, dy);
  backward_params_impl(x, y, dy, scratch);
}

void Layer::backward_params_impl(const Tensor& x, const Tensor& y,
                                 const Tensor& dy, Tensor& scratch) {
  scratch.resize(in_shape_);
  backward_impl(x, y, dy, scratch);
}

}  // namespace ds
