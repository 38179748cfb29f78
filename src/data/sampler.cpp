#include "data/sampler.hpp"

#include <cstring>

#include "support/error.hpp"

namespace ds {

BatchSampler::BatchSampler(const Dataset& dataset, std::size_t batch_size,
                           std::uint64_t seed)
    : dataset_(dataset), batch_size_(batch_size), rng_(seed) {
  DS_CHECK(batch_size_ > 0, "batch size must be positive");
  DS_CHECK(dataset_.size() > 0, "cannot sample from empty dataset");
}

void BatchSampler::next(Tensor& images, std::vector<std::int32_t>& labels) {
  std::vector<std::size_t> indices(batch_size_);
  for (auto& idx : indices) idx = rng_.below(dataset_.size());
  gather_batch(dataset_, indices, images, labels);
}

void gather_images(const Dataset& dataset,
                   std::span<const std::size_t> indices, Tensor& images) {
  const std::size_t sample = dataset.sample_numel();
  const Shape want{indices.size(), dataset.images.dim(1),
                   dataset.images.dim(2), dataset.images.dim(3)};
  images.resize(want);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    DS_CHECK(indices[i] < dataset.size(),
             "batch index " << indices[i] << " out of " << dataset.size());
    std::memcpy(images.data() + i * sample,
                dataset.images.data() + indices[i] * sample,
                sample * sizeof(float));
  }
}

void gather_batch(const Dataset& dataset,
                  const std::vector<std::size_t>& indices, Tensor& images,
                  std::vector<std::int32_t>& labels) {
  gather_images(dataset, indices, images);
  labels.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    labels[i] = dataset.labels[indices[i]];
  }
}

std::vector<Dataset> shard(const Dataset& dataset, std::size_t parts) {
  DS_CHECK(parts > 0, "shard into zero parts");
  DS_CHECK(dataset.size() >= parts,
           "dataset of " << dataset.size() << " cannot shard " << parts);
  std::vector<Dataset> out;
  out.reserve(parts);
  const std::size_t sample = dataset.sample_numel();
  const std::size_t base = dataset.size() / parts;
  const std::size_t extra = dataset.size() % parts;
  std::size_t start = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t count = base + (p < extra ? 1 : 0);
    Dataset d;
    d.images = Tensor({count, dataset.images.dim(1), dataset.images.dim(2),
                       dataset.images.dim(3)});
    std::memcpy(d.images.data(), dataset.images.data() + start * sample,
                count * sample * sizeof(float));
    d.labels.assign(dataset.labels.begin() + static_cast<long>(start),
                    dataset.labels.begin() + static_cast<long>(start + count));
    out.push_back(std::move(d));
    start += count;
  }
  return out;
}

std::vector<Dataset> replicate(const Dataset& dataset, std::size_t parts) {
  DS_CHECK(parts > 0, "replicate into zero parts");
  std::vector<Dataset> out;
  out.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    Dataset d;
    d.images = dataset.images;  // deep copy via Tensor copy semantics
    d.labels = dataset.labels;
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace ds
