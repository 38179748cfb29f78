#include <cstring>
#include <sstream>

#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace ds {

InceptionBlock::InceptionBlock(std::size_t in_channels, std::size_t c1x1,
                               std::size_t c3x3_reduce, std::size_t c3x3,
                               std::size_t c5x5_reduce, std::size_t c5x5,
                               std::size_t pool_proj)
    : in_c_(in_channels), out_c_(c1x1 + c3x3 + c5x5 + pool_proj) {
  // Branch 0: 1×1 conv.
  stages_.emplace_back(std::make_unique<Conv2D>(in_c_, c1x1, 1),
                       std::make_unique<ReLU>());
  // Branch 1: 1×1 reduce then 3×3 (pad 1 keeps spatial size).
  stages_.emplace_back(std::make_unique<Conv2D>(in_c_, c3x3_reduce, 1),
                       std::make_unique<ReLU>(),
                       std::make_unique<Conv2D>(c3x3_reduce, c3x3, 3, 1, 1),
                       std::make_unique<ReLU>());
  // Branch 2: 1×1 reduce then 5×5 (pad 2).
  stages_.emplace_back(std::make_unique<Conv2D>(in_c_, c5x5_reduce, 1),
                       std::make_unique<ReLU>(),
                       std::make_unique<Conv2D>(c5x5_reduce, c5x5, 5, 1, 2),
                       std::make_unique<ReLU>());
  // Branch 3: 3×3 maxpool (stride 1, pad 1) then 1×1 projection.
  stages_.emplace_back(std::make_unique<MaxPool2D>(3, 1, 1),
                       std::make_unique<Conv2D>(in_c_, pool_proj, 1),
                       std::make_unique<ReLU>());
}

std::string InceptionBlock::name() const {
  std::ostringstream os;
  os << "inception " << in_c_ << "->" << out_channels();
  return os.str();
}

Shape InceptionBlock::output_shape(const Shape& input) const {
  DS_CHECK(input.rank() == 4, "inception input must be NCHW");
  DS_CHECK(input.dim(1) == in_c_,
           name() << ": input has " << input.dim(1) << " channels");
  return Shape{input.dim(0), out_channels(), input.dim(2), input.dim(3)};
}

void InceptionBlock::forward_impl(const Tensor& x, Tensor& y, bool train) {
  const std::size_t batch = x.dim(0);
  const std::size_t hw = y.dim(2) * y.dim(3);
  const std::size_t out_c = y.dim(1);
  Tensor* s = scratch().inner;
  std::size_t c_offset = 0;
  for (Stages& branch : stages_) {
    const Tensor& out = branch.forward(x, train, s[0], s[1]);
    // Concatenate the branch output into y along the channel dimension.
    const std::size_t bc = out.dim(1);
    for (std::size_t n = 0; n < batch; ++n) {
      std::memcpy(y.data() + (n * out_c + c_offset) * hw,
                  out.data() + n * bc * hw, bc * hw * sizeof(float));
    }
    c_offset += bc;
  }
}

void InceptionBlock::backward_impl(const Tensor& x, const Tensor& /*y*/,
                                   const Tensor& dy, Tensor& dx) {
  dx.zero();
  const std::size_t batch = x.dim(0);
  const std::size_t hw = dy.dim(2) * dy.dim(3);
  const std::size_t out_c = dy.dim(1);
  // The branch's dy slice in g[0], its stage gradients through g[1], g[2].
  Tensor* g = scratch().inner;
  std::size_t c_offset = 0;
  for (Stages& branch : stages_) {
    const std::size_t bc = branch.output().dim(1);
    g[0].resize(branch.output().shape());
    for (std::size_t n = 0; n < batch; ++n) {
      std::memcpy(g[0].data() + n * bc * hw,
                  dy.data() + (n * out_c + c_offset) * hw,
                  bc * hw * sizeof(float));
    }
    // Sum the branches' input gradients.
    accumulate(branch.backward(x, g[0], g[1], g[2]).span(), dx.span());
    c_offset += bc;
  }
}

}  // namespace ds
