#include "nn/stages.hpp"

namespace ds {

std::size_t Stages::param_count() const {
  std::size_t n = 0;
  for (const LayerPtr& l : layers_) n += l->param_count();
  return n;
}

std::size_t Stages::bind(std::span<float> params, std::span<float> grads) {
  std::size_t offset = 0;
  for (LayerPtr& l : layers_) {
    const std::size_t n = l->param_count();
    l->bind(params.subspan(offset, n), grads.subspan(offset, n));
    offset += n;
  }
  return offset;
}

void Stages::bind_scratch(LayerScratch& scratch) {
  for (LayerPtr& l : layers_) l->bind_scratch(scratch);
}

void Stages::init_params(Rng& rng) {
  for (LayerPtr& l : layers_) l->init_params(rng);
}

Shape Stages::output_shape(const Shape& input) const {
  Shape s = input;
  for (const LayerPtr& l : layers_) s = l->output_shape(s);
  return s;
}

double Stages::flops_per_sample(const Shape& input, double total) const {
  Shape s = input;
  for (const LayerPtr& l : layers_) {
    total += l->flops_per_sample(s);
    s = l->output_shape(s);
  }
  return total;
}

void Stages::footprint(Footprint& f) const {
  for (const LayerPtr& l : layers_) l->footprint(f);
  for (const Tensor& t : acts_) f.activations += Footprint::bytes(t);
}

const Tensor& Stages::forward(const Tensor& x, bool train, Tensor& a,
                              Tensor& b) {
  const Tensor* in = &x;
  for (std::size_t s = 0; s < layers_.size(); ++s) {
    Tensor& out = train ? acts_[s] : (s % 2 == 0 ? a : b);
    layers_[s]->forward(*in, out, train);
    in = &out;
  }
  return *in;
}

const Tensor& Stages::backward(const Tensor& x, const Tensor& dy, Tensor& a,
                               Tensor& b) {
  const Tensor* grad = &dy;
  for (std::size_t s = layers_.size(); s-- > 0;) {
    Tensor& dx = grad == &a ? b : a;
    layers_[s]->backward(s == 0 ? x : acts_[s - 1], acts_[s], *grad, dx);
    grad = &dx;
  }
  return *grad;
}

std::size_t CompositeLayer::param_count() const {
  std::size_t n = 0;
  for (const Stages& s : stages_) n += s.param_count();
  return n;
}

void CompositeLayer::bind(std::span<float> params, std::span<float> grads) {
  Layer::bind(params, grads);
  std::size_t offset = 0;
  for (Stages& s : stages_) {
    offset += s.bind(params.subspan(offset), grads.subspan(offset));
  }
}

void CompositeLayer::bind_scratch(LayerScratch& scratch) {
  Layer::bind_scratch(scratch);
  // The stages use only the kernel buffer, which each call partitions
  // afresh; the block itself uses the inner tensors.
  for (Stages& s : stages_) s.bind_scratch(scratch);
}

void CompositeLayer::init_params(Rng& rng) {
  for (Stages& s : stages_) s.init_params(rng);
}

double CompositeLayer::flops_per_sample(const Shape& input) const {
  double total = 0.0;
  for (const Stages& s : stages_) total = s.flops_per_sample(input, total);
  return total;
}

void CompositeLayer::footprint(Footprint& f) const {
  for (const Stages& s : stages_) s.footprint(f);
}

}  // namespace ds
