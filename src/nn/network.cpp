#include "nn/network.hpp"

#include <sstream>

#include "obs/trace.hpp"
#include "support/error.hpp"

namespace ds {

const char* Network::fwd_trace_name(std::size_t i) const {
  if (fwd_trace_names_.empty()) {
    fwd_trace_names_.reserve(layers_.size());
    for (const auto& l : layers_) {
      fwd_trace_names_.push_back(obs::intern("fwd " + l->name()));
    }
  }
  return fwd_trace_names_[i];
}

const char* Network::bwd_trace_name(std::size_t i) const {
  if (bwd_trace_names_.empty()) {
    bwd_trace_names_.reserve(layers_.size());
    for (const auto& l : layers_) {
      bwd_trace_names_.push_back(obs::intern("bwd " + l->name()));
    }
  }
  return bwd_trace_names_[i];
}

Network::Network(Shape input_shape, PackMode pack_mode)
    : input_shape_(std::move(input_shape)), pack_mode_(pack_mode) {
  DS_CHECK(input_shape_.rank() >= 1, "network input shape must be non-empty");
}

Network& Network::add(LayerPtr layer) {
  DS_CHECK(!finalized_, "cannot add layers after finalize()");
  DS_CHECK(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Shape Network::batched(const Shape& sample_shape, std::size_t batch) const {
  std::vector<std::size_t> dims;
  dims.reserve(sample_shape.rank() + 1);
  dims.push_back(batch);
  for (const std::size_t d : sample_shape.dims()) dims.push_back(d);
  return Shape(dims);
}

void Network::finalize(Rng& rng) {
  DS_CHECK(!finalized_, "finalize() called twice");
  DS_CHECK(!layers_.empty(), "network has no layers");

  std::vector<std::size_t> sizes;
  sizes.reserve(layers_.size());
  for (const auto& l : layers_) sizes.push_back(l->param_count());
  arena_ = ParamArena(sizes, pack_mode_);

  // Validate shape propagation with a nominal batch of 1 and tally flops.
  Shape s = batched(input_shape_, 1);
  flops_per_sample_ = 0.0;
  layer_flops_.resize(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->bind(arena_.layer_params(i), arena_.layer_grads(i));
    layers_[i]->bind_scratch(arena_.layer_scratch(i));
    layer_flops_[i] = layers_[i]->flops_per_sample(s);
    flops_per_sample_ += layer_flops_[i];
    s = layers_[i]->output_shape(s);
  }
  DS_CHECK(s.rank() == 2, "network must end with N×classes logits, got "
                              << s.str() << " — add a Flatten/FC head");
  classes_ = s.dim(1);

  for (auto& l : layers_) l->init_params(rng);
  acts_.resize(layers_.size());
  grads_cache_.resize(layers_.size());
  finalized_ = true;
}

const Tensor& Network::forward(const Tensor& batch, bool train) {
  DS_CHECK(finalized_, "forward() before finalize()");
  // Training keeps every layer's output for backward; inference needs only
  // the input and output of the running layer, so it alternates between
  // acts_[0] and acts_[1].
  const Tensor* in = &batch;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const obs::SpanGuard span("layer", fwd_trace_name(i));
    Tensor& out = acts_[train ? i : i % 2];
    layers_[i]->forward(*in, out, train);
    in = &out;
  }
  return *in;
}

const Tensor& Network::infer(const Tensor& batch) {
  DS_CHECK(finalized_, "infer() before finalize()");
  DS_CHECK(batch.rank() == input_shape_.rank() + 1,
           "infer() batch rank " << batch.rank() << " != sample rank "
                                 << input_shape_.rank() << " + 1");
  DS_CHECK(batch.dim(0) > 0, "infer() needs a non-empty batch");
  for (std::size_t i = 0; i < input_shape_.rank(); ++i) {
    DS_CHECK(batch.dim(i + 1) == input_shape_.dim(i),
             "infer() batch dim " << i + 1 << " is " << batch.dim(i + 1)
                                  << ", network expects "
                                  << input_shape_.dim(i));
  }
  return forward(batch, /*train=*/false);
}

LossResult Network::forward_backward(const Tensor& batch,
                                     std::span<const std::int32_t> labels) {
  return forward_backward(batch, labels, LayerReadyHook());
}

LossResult Network::forward_backward(const Tensor& batch,
                                     std::span<const std::int32_t> labels,
                                     const LayerReadyHook& on_layer_retired) {
  const Tensor& logits = forward(batch, /*train=*/true);
  const LossResult result = loss_.forward_backward(logits, labels, dlogits_);

  const Tensor* grad = &dlogits_;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const Tensor& in = (i == 0) ? batch : acts_[i - 1];
    {
      const obs::SpanGuard span("layer", bwd_trace_name(i));
      // Nobody reads dL/d(batch): layer 0 accumulates its parameter
      // gradients only.
      if (i == 0) {
        layers_[i]->backward_params(in, acts_[i], *grad, grads_cache_[i]);
      } else {
        layers_[i]->backward(in, acts_[i], *grad, grads_cache_[i]);
      }
    }
    grad = &grads_cache_[i];
    // Layer i has retired: its arena gradient is final. The hook runs
    // OUTSIDE the layer span so its own narration (sends, clock advances)
    // is not attributed to the layer's math.
    if (on_layer_retired) on_layer_retired(i);
  }
  return result;
}

LossResult Network::evaluate_batch(const Tensor& batch,
                                   std::span<const std::int32_t> labels) {
  const Tensor& logits = forward(batch, /*train=*/false);
  return loss_.evaluate(logits, labels);
}

std::vector<std::size_t> Network::comm_chunk_sizes() const {
  std::vector<std::size_t> sizes;
  for (const auto& l : layers_) {
    if (l->param_count() > 0) sizes.push_back(l->param_count());
  }
  return sizes;
}

std::string Network::summary() const {
  std::ostringstream os;
  Shape s = batched(input_shape_, 1);
  os << "input " << s.str() << '\n';
  for (const auto& l : layers_) {
    s = l->output_shape(s);
    os << "  " << l->name() << " -> " << s.str();
    if (l->param_count() > 0) os << "  (" << l->param_count() << " params)";
    os << '\n';
  }
  os << "total params: " << param_count() << " ("
     << static_cast<double>(param_bytes()) / (1024.0 * 1024.0) << " MiB), "
     << "flops/sample: " << flops_per_sample_;
  return os.str();
}

}  // namespace ds
