#include "src/data/dataset.h"

#include <algorithm>
#include <numeric>

namespace fms {
namespace {

// In-place horizontal flip of one [C, H, W] image.
void hflip(float* img, int c, int h, int w) {
  for (int ic = 0; ic < c; ++ic) {
    for (int ih = 0; ih < h; ++ih) {
      float* row = img + (static_cast<std::size_t>(ic) * h + ih) * w;
      std::reverse(row, row + w);
    }
  }
}

// Pad-by-m and random-crop back to (h, w) — the paper's "random clip".
void random_crop(float* img, int c, int h, int w, int margin, Rng& rng) {
  const int dh = rng.randint(-margin, margin);
  const int dw = rng.randint(-margin, margin);
  if (dh == 0 && dw == 0) return;
  std::vector<float> out(static_cast<std::size_t>(c) * h * w, 0.0F);
  for (int ic = 0; ic < c; ++ic) {
    for (int ih = 0; ih < h; ++ih) {
      const int sh = ih + dh;
      if (sh < 0 || sh >= h) continue;
      for (int iw = 0; iw < w; ++iw) {
        const int sw = iw + dw;
        if (sw < 0 || sw >= w) continue;
        out[(static_cast<std::size_t>(ic) * h + ih) * w + iw] =
            img[(static_cast<std::size_t>(ic) * h + sh) * w + sw];
      }
    }
  }
  std::copy(out.begin(), out.end(), img);
}

// Zeroes a random square of the given side length (cutout, [28] in paper).
void cutout(float* img, int c, int h, int w, int length, Rng& rng) {
  const int cy = rng.randint(0, h - 1);
  const int cx = rng.randint(0, w - 1);
  const int y0 = std::max(0, cy - length / 2);
  const int y1 = std::min(h, cy + (length + 1) / 2);
  const int x0 = std::max(0, cx - length / 2);
  const int x1 = std::min(w, cx + (length + 1) / 2);
  for (int ic = 0; ic < c; ++ic) {
    for (int ih = y0; ih < y1; ++ih) {
      for (int iw = x0; iw < x1; ++iw) {
        img[(static_cast<std::size_t>(ic) * h + ih) * w + iw] = 0.0F;
      }
    }
  }
}

}  // namespace

Dataset::Batch Dataset::make_batch(std::span<const int> indices,
                                   const AugmentConfig* aug, Rng* rng) const {
  const int b = static_cast<int>(indices.size());
  Batch batch{Tensor({b, c_, h_, w_}), {}};
  batch.y.reserve(static_cast<std::size_t>(b));
  const std::size_t sz = static_cast<std::size_t>(c_) * h_ * w_;
  for (int i = 0; i < b; ++i) {
    const int idx = indices[static_cast<std::size_t>(i)];
    FMS_CHECK(idx >= 0 && idx < size());
    auto img = image(idx);
    float* dst = batch.x.data() + static_cast<std::size_t>(i) * sz;
    std::copy(img.begin(), img.end(), dst);
    if (aug != nullptr) {
      FMS_CHECK_MSG(rng != nullptr, "augmentation requires an Rng");
      if (rng->bernoulli(aug->horizontal_flip_p)) hflip(dst, c_, h_, w_);
      if (aug->random_clip > 0) {
        random_crop(dst, c_, h_, w_, aug->random_clip, *rng);
      }
      if (aug->cutout > 0) cutout(dst, c_, h_, w_, aug->cutout, *rng);
    }
    batch.y.push_back(label(idx));
  }
  return batch;
}

Dataset::Batch Shard::next_batch(int batch_size, const AugmentConfig* aug,
                                 Rng& rng) {
  FMS_CHECK_MSG(data_ != nullptr && !indices_.empty(), "empty shard");
  std::vector<int> chosen;
  chosen.reserve(static_cast<std::size_t>(batch_size));
  for (int i = 0; i < batch_size; ++i) {
    if (cursor_ >= order_.size()) {
      order_ = indices_;
      rng.shuffle(order_);
      cursor_ = 0;
    }
    chosen.push_back(order_[cursor_++]);
  }
  return data_->make_batch(chosen, aug, &rng);
}

template <class Io, class Self>
void Shard::walk(Io& io, Self& s) {
  io(s.order_, as<std::uint64_t>(s.cursor_));
  if constexpr (Io::kReading) {
    FMS_CHECK_MSG(s.cursor_ <= s.order_.size(), "shard cursor past epoch end");
    FMS_CHECK_MSG(s.order_.empty() || s.order_.size() == s.indices_.size(),
                  "shard epoch order size mismatch");
  }
}

void Shard::serialize(ByteWriter& w) const { walk(w, *this); }
void Shard::restore(ByteReader& r) { walk(r, *this); }

std::vector<int> Shard::label_histogram() const {
  std::vector<int> hist(static_cast<std::size_t>(data_->num_classes()), 0);
  for (int idx : indices_) {
    ++hist[static_cast<std::size_t>(data_->label(idx))];
  }
  return hist;
}

std::vector<std::vector<int>> iid_partition(int n, int k, Rng& rng) {
  FMS_CHECK(n > 0 && k > 0);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<std::vector<int>> parts(static_cast<std::size_t>(k));
  for (int i = 0; i < n; ++i) {
    parts[static_cast<std::size_t>(i % k)].push_back(order[static_cast<std::size_t>(i)]);
  }
  return parts;
}

std::vector<std::vector<int>> dirichlet_partition(
    const std::vector<int>& labels, int num_classes, int k, double beta,
    Rng& rng) {
  FMS_CHECK(k > 0 && num_classes > 0);
  std::vector<std::vector<int>> by_class(static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    FMS_CHECK(labels[i] >= 0 && labels[i] < num_classes);
    by_class[static_cast<std::size_t>(labels[i])].push_back(static_cast<int>(i));
  }
  std::vector<std::vector<int>> parts(static_cast<std::size_t>(k));
  for (auto& cls : by_class) {
    rng.shuffle(cls);
    std::vector<double> p = rng.dirichlet(beta, k);
    // Convert proportions to contiguous slice boundaries.
    std::size_t start = 0;
    double cum = 0.0;
    for (int j = 0; j < k; ++j) {
      cum += p[static_cast<std::size_t>(j)];
      std::size_t end = (j == k - 1)
                            ? cls.size()
                            : static_cast<std::size_t>(cum * static_cast<double>(cls.size()));
      end = std::min(end, cls.size());
      for (std::size_t i = start; i < end; ++i) {
        parts[static_cast<std::size_t>(j)].push_back(cls[i]);
      }
      start = std::max(start, end);
    }
  }
  // Guarantee every participant has at least one sample (tiny shards would
  // break batch training); steal from the largest shard if needed.
  for (auto& part : parts) {
    if (!part.empty()) continue;
    auto largest = std::max_element(
        parts.begin(), parts.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    FMS_CHECK_MSG(largest->size() > 1, "not enough data to cover participants");
    part.push_back(largest->back());
    largest->pop_back();
  }
  return parts;
}

std::vector<Shard> make_shards(const Dataset& data,
                               const std::vector<std::vector<int>>& parts) {
  std::vector<Shard> shards;
  shards.reserve(parts.size());
  for (const auto& p : parts) shards.emplace_back(&data, p);
  return shards;
}

}  // namespace fms
