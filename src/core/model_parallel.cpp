#include "core/model_parallel.hpp"

#include <cstring>

#include "support/error.hpp"
#include "tensor/gemm.hpp"

namespace ds {
namespace {
constexpr int kGatherTag = 701;
}

ModelParallelFC::ModelParallelFC(Fabric& fabric, std::size_t rank,
                                 std::size_t in_features,
                                 std::size_t out_features)
    : fabric_(fabric), rank_(rank), in_(in_features), out_(out_features) {
  const std::size_t ranks = fabric_.ranks();
  DS_CHECK(rank_ < ranks, "rank out of range");
  DS_CHECK(out_ >= ranks, "fewer output rows than ranks");
  const std::size_t base = out_ / ranks;
  const std::size_t extra = out_ % ranks;
  rows_begin_ = rank_ * base + std::min(rank_, extra);
  rows_end_ = rows_begin_ + base + (rank_ < extra ? 1 : 0);
  const std::size_t local = rows_end_ - rows_begin_;
  params_.assign(local * in_ + local, 0.0f);
  grads_.assign(params_.size(), 0.0f);
}

void ModelParallelFC::load_full(std::span<const float> full_weights,
                                std::size_t in_features,
                                std::size_t out_features) {
  DS_CHECK(in_features == in_ && out_features == out_,
           "load_full dimension mismatch");
  DS_CHECK(full_weights.size() == out_ * in_ + out_,
           "full weight span has wrong size");
  const std::size_t local = rows_end_ - rows_begin_;
  // Weight rows.
  std::memcpy(params_.data(), full_weights.data() + rows_begin_ * in_,
              local * in_ * sizeof(float));
  // Biases.
  std::memcpy(params_.data() + local * in_,
              full_weights.data() + out_ * in_ + rows_begin_,
              local * sizeof(float));
}

void ModelParallelFC::forward(const Tensor& x, Tensor& y) {
  const std::size_t ranks = fabric_.ranks();
  const std::size_t local = rows_end_ - rows_begin_;

  // Broadcast rank 0's input to every shard (Figure 4.2: all partitions
  // see the full activations of the previous layer).
  std::vector<float> xbuf;
  std::size_t batch = 0;
  if (rank_ == 0) {
    DS_CHECK(x.rank() == 2 && x.dim(1) == in_, "x must be N×in on rank 0");
    batch = x.dim(0);
    xbuf.assign(x.data(), x.data() + x.numel());
    xbuf.push_back(static_cast<float>(batch));  // ship the batch size too
  }
  fabric_.tree_broadcast(rank_, 0, xbuf);
  batch = static_cast<std::size_t>(xbuf.back());
  xbuf.pop_back();

  // Local slice: y_local = X · W_localᵀ + b_local.
  std::vector<float> y_local(batch * local);
  const float* weights = params_.data();
  const float* bias = params_.data() + local * in_;
  gemm(Transpose::kNo, Transpose::kYes, batch, local, in_, 1.0f, xbuf.data(),
       weights, 0.0f, y_local.data());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t j = 0; j < local; ++j) y_local[n * local + j] += bias[j];
  }

  // Gather the slices on rank 0, assemble, broadcast the full output.
  std::vector<float> full;
  if (rank_ == 0) {
    full.assign(batch * out_, 0.0f);
    // Own slice.
    for (std::size_t n = 0; n < batch; ++n) {
      std::memcpy(full.data() + n * out_ + rows_begin_,
                  y_local.data() + n * local, local * sizeof(float));
    }
    for (std::size_t src = 1; src < ranks; ++src) {
      const std::vector<float> slice = fabric_.recv(0, src, kGatherTag);
      // Reconstruct the source's row range.
      const std::size_t base = out_ / ranks;
      const std::size_t extra = out_ % ranks;
      const std::size_t begin = src * base + std::min(src, extra);
      const std::size_t count = base + (src < extra ? 1 : 0);
      DS_CHECK(slice.size() == batch * count, "gather slice size mismatch");
      for (std::size_t n = 0; n < batch; ++n) {
        std::memcpy(full.data() + n * out_ + begin,
                    slice.data() + n * count, count * sizeof(float));
      }
    }
  } else {
    fabric_.send(rank_, 0, kGatherTag, std::move(y_local));
  }
  fabric_.tree_broadcast(rank_, 0, full);

  y.resize(Shape{batch, out_});
  std::memcpy(y.data(), full.data(), full.size() * sizeof(float));
}

void ModelParallelFC::backward(const Tensor& x, const Tensor& dy,
                               Tensor& dx) {
  const std::size_t local = rows_end_ - rows_begin_;
  DS_CHECK(dy.rank() == 2 && dy.dim(1) == out_, "dy must be N×out");
  const std::size_t batch = dy.dim(0);
  DS_CHECK(x.rank() == 2 && x.dim(0) == batch && x.dim(1) == in_,
           "x must be N×in (every rank passes the broadcast input)");

  // Slice this rank's output-gradient rows.
  std::vector<float> dy_local(batch * local);
  for (std::size_t n = 0; n < batch; ++n) {
    std::memcpy(dy_local.data() + n * local,
                dy.data() + n * out_ + rows_begin_, local * sizeof(float));
  }

  // Parameter gradients (local only — this is the model-parallel win:
  // weights never cross the network).
  float* dweights = grads_.data();
  float* dbias = grads_.data() + local * in_;
  gemm(Transpose::kYes, Transpose::kNo, local, in_, batch, 1.0f,
       dy_local.data(), x.data(), 1.0f, dweights);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t j = 0; j < local; ++j) {
      dbias[j] += dy_local[n * local + j];
    }
  }

  // Partial input gradient, summed across ranks.
  std::vector<float> dx_partial(batch * in_, 0.0f);
  gemm(Transpose::kNo, Transpose::kNo, batch, in_, local, 1.0f,
       dy_local.data(), params_.data(), 0.0f, dx_partial.data());
  fabric_.tree_allreduce(rank_, 0, dx_partial);

  dx.resize(Shape{batch, in_});
  std::memcpy(dx.data(), dx_partial.data(),
              dx_partial.size() * sizeof(float));
}

double ModelParallelFC::comm_bytes_per_iteration(std::size_t batch,
                                                 std::size_t in_features,
                                                 std::size_t out_features,
                                                 std::size_t ranks) {
  if (ranks <= 1) return 0.0;
  const double p1 = static_cast<double>(ranks - 1);
  const double b = static_cast<double>(batch);
  const double fin = static_cast<double>(in_features);
  const double fout = static_cast<double>(out_features);
  // forward: broadcast x (p-1 messages) + gather y slices (~1 full y) +
  // broadcast y (p-1); backward: allreduce dx (2(p-1)).
  const double floats =
      p1 * b * fin + b * fout + p1 * b * fout + 2.0 * p1 * b * fin;
  return floats * sizeof(float);
}

double ModelParallelFC::data_parallel_comm_bytes(std::size_t in_features,
                                                 std::size_t out_features,
                                                 std::size_t ranks) {
  if (ranks <= 1) return 0.0;
  const double params =
      static_cast<double>(out_features) * static_cast<double>(in_features) +
      static_cast<double>(out_features);
  // Tree allreduce of the gradient: 2(P−1) weight-sized messages in total.
  return 2.0 * static_cast<double>(ranks - 1) * params * sizeof(float);
}

}  // namespace ds
