#include <cstring>
#include <sstream>

#include "nn/layers.hpp"

namespace ds {

InceptionBlock::InceptionBlock(std::size_t in_channels, std::size_t c1x1,
                               std::size_t c3x3_reduce, std::size_t c3x3,
                               std::size_t c5x5_reduce, std::size_t c5x5,
                               std::size_t pool_proj)
    : in_c_(in_channels),
      out_1x1_(c1x1),
      out_3x3_(c3x3),
      out_5x5_(c5x5),
      out_pool_(pool_proj) {
  branches_.resize(4);
  // Branch 0: 1×1 conv.
  branches_[0].stages.push_back(std::make_unique<Conv2D>(in_c_, c1x1, 1));
  branches_[0].stages.push_back(std::make_unique<ReLU>());
  // Branch 1: 1×1 reduce then 3×3 (pad 1 keeps spatial size).
  branches_[1].stages.push_back(std::make_unique<Conv2D>(in_c_, c3x3_reduce, 1));
  branches_[1].stages.push_back(std::make_unique<ReLU>());
  branches_[1].stages.push_back(
      std::make_unique<Conv2D>(c3x3_reduce, c3x3, 3, 1, 1));
  branches_[1].stages.push_back(std::make_unique<ReLU>());
  // Branch 2: 1×1 reduce then 5×5 (pad 2).
  branches_[2].stages.push_back(std::make_unique<Conv2D>(in_c_, c5x5_reduce, 1));
  branches_[2].stages.push_back(std::make_unique<ReLU>());
  branches_[2].stages.push_back(
      std::make_unique<Conv2D>(c5x5_reduce, c5x5, 5, 1, 2));
  branches_[2].stages.push_back(std::make_unique<ReLU>());
  // Branch 3: 3×3 maxpool (stride 1, pad 1) then 1×1 projection.
  branches_[3].stages.push_back(std::make_unique<MaxPool2D>(3, 1, 1));
  branches_[3].stages.push_back(std::make_unique<Conv2D>(in_c_, pool_proj, 1));
  branches_[3].stages.push_back(std::make_unique<ReLU>());
}

std::string InceptionBlock::name() const {
  std::ostringstream os;
  os << "inception " << in_c_ << "->" << out_channels();
  return os.str();
}

std::size_t InceptionBlock::out_channels() const {
  return out_1x1_ + out_3x3_ + out_5x5_ + out_pool_;
}

Shape InceptionBlock::output_shape(const Shape& input) const {
  DS_CHECK(input.rank() == 4, "inception input must be NCHW");
  DS_CHECK(input.dim(1) == in_c_,
           name() << ": input has " << input.dim(1) << " channels");
  return Shape{input.dim(0), out_channels(), input.dim(2), input.dim(3)};
}

std::size_t InceptionBlock::param_count() const {
  std::size_t n = 0;
  for (const auto& b : branches_) {
    for (const auto& stage : b.stages) n += stage->param_count();
  }
  return n;
}

void InceptionBlock::bind(std::span<float> params, std::span<float> grads) {
  Layer::bind(params, grads);
  std::size_t offset = 0;
  for (auto& b : branches_) {
    for (auto& stage : b.stages) {
      const std::size_t n = stage->param_count();
      stage->bind(params.subspan(offset, n), grads.subspan(offset, n));
      offset += n;
    }
  }
}

void InceptionBlock::bind_scratch(LayerScratch& scratch) {
  Layer::bind_scratch(scratch);
  // The stages use only the kernel buffer, which each call partitions
  // afresh.
  for (auto& b : branches_) {
    for (auto& stage : b.stages) stage->bind_scratch(scratch);
  }
}

void InceptionBlock::init_params(Rng& rng) {
  for (auto& b : branches_) {
    for (auto& stage : b.stages) stage->init_params(rng);
  }
}

void InceptionBlock::forward_impl(const Tensor& x, Tensor& y, bool train) {
  const std::size_t batch = x.dim(0);
  const std::size_t hw = y.dim(2) * y.dim(3);
  const std::size_t out_c = y.dim(1);
  Tensor* infer_bufs = scratch().inner;
  std::size_t c_offset = 0;
  for (Branch& b : branches_) {
    // Training keeps every stage's output for backward; inference runs the
    // stages through two scratch tensors.
    if (train) b.acts.resize(b.stages.size());
    const Tensor* in = &x;
    for (std::size_t s = 0; s < b.stages.size(); ++s) {
      Tensor& stage_out = train ? b.acts[s] : infer_bufs[s % 2];
      b.stages[s]->forward(*in, stage_out, train);
      in = &stage_out;
    }
    // Concatenate the branch output into y along the channel dimension.
    const std::size_t bc = in->dim(1);
    for (std::size_t n = 0; n < batch; ++n) {
      std::memcpy(y.data() + (n * out_c + c_offset) * hw,
                  in->data() + n * bc * hw, bc * hw * sizeof(float));
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
  // The branch's dy slice, then the stage gradients, alternating.
  Tensor* bufs = scratch().inner;

  std::size_t c_offset = 0;
  for (auto& b : branches_) {
    const std::size_t bc = b.acts.back().dim(1);
    // Slice dy channels belonging to this branch.
    bufs[0].resize(b.acts.back().shape());
    for (std::size_t n = 0; n < batch; ++n) {
      std::memcpy(bufs[0].data() + n * bc * hw,
                  dy.data() + (n * out_c + c_offset) * hw,
                  bc * hw * sizeof(float));
    }
    // Back-propagate through the branch stages.
    const Tensor* grad = &bufs[0];
    for (std::size_t s = b.stages.size(); s-- > 0;) {
      const Tensor& stage_in = (s == 0) ? x : b.acts[s - 1];
      Tensor& stage_dx = bufs[grad == &bufs[1] ? 2 : 1];
      b.stages[s]->backward(stage_in, b.acts[s], *grad, stage_dx);
      grad = &stage_dx;
    }
    // Sum branch input-gradients.
    const float* g = grad->data();
    float* out = dx.data();
    const std::size_t n = dx.numel();
    for (std::size_t i = 0; i < n; ++i) out[i] += g[i];
    c_offset += bc;
  }
}

double InceptionBlock::flops_per_sample(const Shape& input) const {
  double total = 0.0;
  for (const auto& b : branches_) {
    Shape s = input;
    for (const auto& stage : b.stages) {
      total += stage->flops_per_sample(s);
      s = stage->output_shape(s);
    }
  }
  return total;
}

void InceptionBlock::footprint(Footprint& f) const {
  for (const Branch& b : branches_) {
    for (const auto& stage : b.stages) stage->footprint(f);
    for (const Tensor& t : b.acts) f.activations += Footprint::bytes(t);
  }
}

}  // namespace ds
