// Tests for the payload codecs: round-trip error bounds, size accounting,
// and integration with the search loop.
#include <cmath>

#include "gtest/gtest.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/fed/compression.h"

namespace fms {
namespace {

std::vector<float> random_payload(std::size_t n, Rng& rng, float scale) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normal(0.0F, scale);
  return v;
}

TEST(Codec, Float32IsLossless) {
  Rng rng(1);
  auto v = random_payload(1000, rng, 3.0F);
  auto back = codec_decode(codec_encode(v, Codec::kFloat32));
  EXPECT_EQ(back, v);
}

TEST(Codec, Float16RelativeErrorSmall) {
  Rng rng(2);
  auto v = random_payload(2000, rng, 2.0F);
  auto back = codec_decode(codec_encode(v, Codec::kFloat16));
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(back[i], v[i], std::abs(v[i]) * 1e-3F + 1e-4F) << i;
  }
}

TEST(Codec, Float16HandlesSpecialValues) {
  std::vector<float> v{0.0F, -0.0F, 1.0F, -1.0F, 65504.0F, -65504.0F,
                       1e-8F, 1e6F};
  auto back = codec_decode(codec_encode(v, Codec::kFloat16));
  EXPECT_FLOAT_EQ(back[0], 0.0F);
  EXPECT_FLOAT_EQ(back[2], 1.0F);
  EXPECT_FLOAT_EQ(back[3], -1.0F);
  EXPECT_NEAR(back[4], 65504.0F, 64.0F);
  // Tiny magnitudes flush to zero, huge ones clamp to max finite.
  EXPECT_NEAR(back[6], 0.0F, 1e-6F);
  EXPECT_GT(back[7], 60000.0F);
}

TEST(Codec, Int8ErrorBoundedByChunkRange) {
  Rng rng(3);
  auto v = random_payload(3000, rng, 1.0F);
  auto back = codec_decode(codec_encode(v, Codec::kInt8));
  ASSERT_EQ(back.size(), v.size());
  // Per 256-value chunk the quantization step is range/255; values drawn
  // from N(0,1) have range < 12 with overwhelming probability.
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(back[i], v[i], 12.0F / 255.0F) << i;
  }
}

TEST(Codec, Int8ConstantChunkIsExact) {
  std::vector<float> v(300, 1.25F);
  auto back = codec_decode(codec_encode(v, Codec::kInt8));
  for (float x : back) EXPECT_FLOAT_EQ(x, 1.25F);
}

TEST(Codec, EncodedBytesMatchActualAndShrink) {
  Rng rng(4);
  for (std::size_t n : {0UL, 1UL, 255UL, 256UL, 257UL, 5000UL}) {
    auto v = random_payload(n, rng, 1.0F);
    for (Codec c : {Codec::kFloat32, Codec::kFloat16, Codec::kInt8}) {
      EXPECT_EQ(codec_encode(v, c).size(), codec_encoded_bytes(n, c))
          << codec_name(c) << " n=" << n;
    }
    if (n >= 256) {
      EXPECT_LT(codec_encoded_bytes(n, Codec::kFloat16),
                codec_encoded_bytes(n, Codec::kFloat32));
      EXPECT_LT(codec_encoded_bytes(n, Codec::kInt8),
                codec_encoded_bytes(n, Codec::kFloat16));
    }
  }
}

TEST(Codec, DecodeRejectsGarbage) {
  std::vector<std::uint8_t> garbage{42, 1, 0, 0};
  EXPECT_THROW(codec_decode(garbage), CheckError);
  // A well-formed payload with one byte cut or added, an unknown codec
  // tag, or a count larger than the bytes can hold.
  Rng rng(6);
  for (Codec c : {Codec::kFloat32, Codec::kFloat16, Codec::kInt8}) {
    const std::vector<std::uint8_t> good =
        codec_encode(random_payload(300, rng, 1.0F), c);
    std::vector<std::uint8_t> cut(good.begin(), good.end() - 1);
    std::vector<std::uint8_t> longer = good;
    longer.push_back(0);
    std::vector<std::uint8_t> tag = good;
    tag[0] = 3;
    std::vector<std::uint8_t> count = good;
    count[8] = 0x80;  // the count's top byte
    for (const auto* bad : {&cut, &longer, &tag, &count}) {
      EXPECT_THROW(codec_decode(*bad), CheckError) << codec_name(c);
    }
  }
}

TEST(Codec, SearchWithInt8PayloadsStillLearns) {
  Rng rng(5);
  SynthSpec spec;
  spec.train_size = 120;
  spec.test_size = 30;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  auto parts = iid_partition(tt.train.size(), 3, rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.codec = Codec::kInt8;
  auto records = search.run_search(6, opts);
  // Bytes drop below the float32 baseline and the loop stays healthy.
  FederatedSearch ref_search(cfg, tt.train, parts);
  auto ref = ref_search.run_search(6, SearchOptions{});
  EXPECT_LT(records[0].bytes_down, ref[0].bytes_down);
  EXPECT_LT(records[0].bytes_up, ref[0].bytes_up);
  for (const auto& r : records) EXPECT_EQ(r.arrived, 3);
}

}  // namespace
}  // namespace fms
