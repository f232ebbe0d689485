// Dataset substrate.
//
// The paper evaluates on CIFAR10 / SVHN / CIFAR100, which are not available
// offline; the algorithms only interact with data through batches, labels
// and per-participant label distributions, so we substitute procedural
// class-conditional generators (see synth.h) and keep the partitioning
// (i.i.d. and per-class Dirichlet(0.5), as in FedNAS) faithful.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/config.h"
#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace fms {

// An in-memory labeled image dataset (NCHW, float32 in roughly [-1, 1]).
class Dataset {
 public:
  Dataset(int num_classes, int channels, int height, int width)
      : num_classes_(num_classes), c_(channels), h_(height), w_(width) {}

  void add(std::vector<float> image, int label) {
    FMS_CHECK(static_cast<int>(image.size()) == c_ * h_ * w_);
    FMS_CHECK(label >= 0 && label < num_classes_);
    pixels_.insert(pixels_.end(), image.begin(), image.end());
    labels_.push_back(label);
  }

  int size() const { return static_cast<int>(labels_.size()); }
  bool empty() const { return labels_.empty(); }
  int num_classes() const { return num_classes_; }
  int channels() const { return c_; }
  int height() const { return h_; }
  int width() const { return w_; }
  const std::vector<int>& labels() const { return labels_; }
  int label(int i) const { return labels_[static_cast<std::size_t>(i)]; }

  std::span<const float> image(int i) const {
    const std::size_t sz = static_cast<std::size_t>(c_) * h_ * w_;
    return {pixels_.data() + static_cast<std::size_t>(i) * sz, sz};
  }

  // Assembles a batch [B, C, H, W]; when aug != nullptr applies random
  // horizontal flip, pad-and-crop ("random clip") and cutout per sample.
  struct Batch {
    Tensor x;
    std::vector<int> y;
  };
  Batch make_batch(std::span<const int> indices, const AugmentConfig* aug,
                   Rng* rng) const;

 private:
  int num_classes_, c_, h_, w_;
  std::vector<float> pixels_;
  std::vector<int> labels_;
};

// Index-based view of a dataset shard owned by one participant.
class Shard {
 public:
  Shard() = default;
  Shard(const Dataset* data, std::vector<int> indices)
      : data_(data), indices_(std::move(indices)) {}

  int size() const { return static_cast<int>(indices_.size()); }
  const Dataset& dataset() const { return *data_; }
  const std::vector<int>& indices() const { return indices_; }

  // Random batch with replacement across epochs (shuffled without
  // replacement within an epoch).
  Dataset::Batch next_batch(int batch_size, const AugmentConfig* aug,
                            Rng& rng);

  // Label histogram — used by tests to verify non-i.i.d. skew.
  std::vector<int> label_histogram() const;

  // Epoch-iteration state (shuffled order + cursor) persistence, so a
  // resumed federated search continues mid-epoch exactly where it stopped.
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& s);

  const Dataset* data_ = nullptr;
  std::vector<int> indices_;
  std::vector<int> order_;
  std::size_t cursor_ = 0;
};

// Splits [0, n) into K near-equal random shards.
std::vector<std::vector<int>> iid_partition(int n, int k, Rng& rng);

// Per-class Dirichlet(beta) partition over K participants (FedNAS-style):
// for each class, sample p ~ Dir_K(beta) and distribute that class's
// samples according to p.
std::vector<std::vector<int>> dirichlet_partition(
    const std::vector<int>& labels, int num_classes, int k, double beta,
    Rng& rng);

// Builds Shards for all participants from a partition.
std::vector<Shard> make_shards(const Dataset& data,
                               const std::vector<std::vector<int>>& parts);

}  // namespace fms
