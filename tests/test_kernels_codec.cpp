// Payload codec contract, selected with `ctest -L kernels`: the int8 lane
// quantizer and dequantizer (src/fed/compression.cpp) and the float16
// loop against the scalar loops in codec_reference.h, over seeded random
// payloads of lengths around the 16-value lane width and the 256-value
// int8 chunk: normal values at ranges from 1e-6 to 1e3, constant chunks,
// exact .5 ties, zeros of both signs (a minimum zero of both signs
// included) and subnormals. For finite inputs codec_encode's bytes equal
// the reference's, and codec_decode and the in-place codec_round_trip
// return its floats bit for bit. Then the non-finite rules of
// compression.h, and a chunk whose scale underflows to zero.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fed/compression.h"
#include "tests/codec_reference.h"

namespace fms {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr std::size_t kChunk = 256;
constexpr std::array<std::size_t, 9> kLengths = {0,   1,   15,  16,  17,
                                                  255, 256, 257, 5000};
constexpr std::array<Codec, 3> kCodecs = {Codec::kFloat32, Codec::kFloat16,
                                          Codec::kInt8};

enum class Draw { kNormal, kConstant, kTies, kZeros, kSubnormal };
constexpr std::array<Draw, 5> kDrawKinds = {Draw::kNormal, Draw::kConstant,
                                            Draw::kTies, Draw::kZeros,
                                            Draw::kSubnormal};

const char* draw_name(Draw d) {
  switch (d) {
    case Draw::kNormal: return "normal";
    case Draw::kConstant: return "constant";
    case Draw::kTies: return "ties";
    case Draw::kZeros: return "zeros";
    case Draw::kSubnormal: return "subnormal";
  }
  return "?";
}

// 10^u for u uniform in [-6, 3]: the draw's value range.
float draw_range(Rng& rng) {
  return std::pow(10.0F, rng.uniform(-6.0F, 3.0F));
}

// One int8 chunk of `len` values of the given kind.
void fill_chunk(Draw kind, Rng& rng, float* v, std::size_t len) {
  switch (kind) {
    case Draw::kNormal: {
      const float range = draw_range(rng);
      const float offset = rng.uniform(-2.0F, 2.0F) * range;
      for (std::size_t i = 0; i < len; ++i) v[i] = rng.normal(offset, range);
      break;
    }
    case Draw::kConstant: {
      const float c = rng.randint(0, 3) == 0 ? 0.0F : rng.normal(0.0F, 10.0F);
      for (std::size_t i = 0; i < len; ++i) v[i] = c;
      break;
    }
    case Draw::kTies: {
      // lo a multiple of 2^-4, step 2^e: every value lo + (k + 0.5) * step
      // is exact, and so are scale = 255 * step / 255 = step and
      // (v - lo) / scale = k + 0.5, once lo and lo + 255 * step are present.
      const float lo = static_cast<float>(rng.randint(-64, 64)) / 16.0F;
      const float step = std::ldexp(1.0F, rng.randint(-10, 4));
      for (std::size_t i = 0; i < len; ++i) {
        v[i] = lo + (static_cast<float>(rng.randint(0, 254)) + 0.5F) * step;
      }
      if (len >= 2) {
        const auto a = static_cast<std::size_t>(
            rng.randint(0, static_cast<int>(len) - 1));
        auto b = static_cast<std::size_t>(
            rng.randint(0, static_cast<int>(len) - 2));
        if (b >= a) ++b;
        v[a] = lo;
        v[b] = lo + 255.0F * step;
      }
      break;
    }
    case Draw::kZeros: {
      // +0 and -0 mixed with positive values (so the minimum is a zero of
      // both signs), sometimes only zeros, sometimes all negated (so the
      // maximum is the zero).
      const bool only_zeros = rng.randint(0, 3) == 0;
      const float sign = rng.randint(0, 1) == 0 ? 1.0F : -1.0F;
      const float range = draw_range(rng);
      for (std::size_t i = 0; i < len; ++i) {
        const int pick = rng.randint(0, 2);
        if (pick == 0) {
          v[i] = 0.0F;
        } else if (pick == 1 || only_zeros) {
          v[i] = -0.0F;
        } else {
          v[i] = sign * std::fabs(rng.normal(0.0F, range));
        }
      }
      break;
    }
    case Draw::kSubnormal: {
      // Either subnormals mixed into normal values, or subnormals only.
      const bool mixed = rng.randint(0, 1) == 0;
      const float range = draw_range(rng);
      for (std::size_t i = 0; i < len; ++i) {
        const float tiny = rng.uniform(-1.0F, 1.0F) * 1e-39F;
        v[i] = mixed && rng.randint(0, 2) != 0 ? rng.normal(0.0F, range) : tiny;
      }
      break;
    }
  }
}

std::vector<float> draw_payload(Draw kind, std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (std::size_t start = 0; start < n; start += kChunk) {
    fill_chunk(kind, rng, v.data() + start, std::min(kChunk, n - start));
  }
  return v;
}

::testing::AssertionResult same_floats(const std::vector<float>& got,
                                       const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " values, oracle " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "[" << i << "] = " << got[i] << ", oracle " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_bytes(const std::vector<std::uint8_t>& got,
                                      const std::vector<std::uint8_t>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " bytes, oracle " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return ::testing::AssertionFailure()
             << "byte " << i << " = " << int{got[i]} << ", oracle "
             << int{want[i]};
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<float> round_trip(std::vector<float> v, Codec codec) {
  codec_round_trip(v, codec);
  return v;
}

TEST(CodecKernel, EveryEntryPointMatchesTheScalarLoops) {
  Rng rng(0xC0DEC);
  for (int rep = 0; rep < 40; ++rep) {
    for (const Draw kind : kDrawKinds) {
      for (const std::size_t n : kLengths) {
        const std::vector<float> v = draw_payload(kind, n, rng);
        for (const Codec codec : kCodecs) {
          std::ostringstream what;
          what << codec_name(codec) << " " << draw_name(kind) << " n=" << n
               << " rep=" << rep;
          SCOPED_TRACE(what.str());
          const std::vector<std::uint8_t> want_bytes =
              codec_ref::encode(v, codec);
          const std::vector<float> want = codec_ref::decode(want_bytes);
          const std::vector<std::uint8_t> bytes = codec_encode(v, codec);
          ASSERT_TRUE(same_bytes(bytes, want_bytes));
          ASSERT_EQ(bytes.size(), codec_encoded_bytes(n, codec));
          ASSERT_TRUE(same_floats(codec_decode(bytes), want));
          ASSERT_TRUE(same_floats(round_trip(v, codec), want));
        }
      }
    }
  }
}

// The int8 wire bytes of a chunk that holds a minimum zero of both signs
// carry the first zero's sign as lo, as the scalar fold did.
TEST(CodecKernel, AMinimumZeroKeepsTheFirstZerosSign) {
  for (const float first : {0.0F, -0.0F}) {
    std::vector<float> v(40, 1.5F);
    v[3] = first;
    v[20] = -first;
    v[37] = first;
    const std::vector<std::uint8_t> bytes = codec_encode(v, Codec::kInt8);
    float lo = 1.0F;
    std::memcpy(&lo, bytes.data() + 9, sizeof lo);
    EXPECT_EQ(lo, 0.0F);
    EXPECT_EQ(std::signbit(lo), std::signbit(first));
    EXPECT_TRUE(same_bytes(bytes, codec_ref::encode(v, Codec::kInt8)));
  }
}

// compression.h's int8 rule: a chunk holding a NaN or an infinity, or
// whose hi - lo overflows, is sent as lo = NaN, scale = 1, codes 0, so all
// of it decodes to NaN; every other chunk is unchanged. The round trip
// stays decode(encode) bit for bit.
TEST(CodecKernel, Int8ChunkWithANonFiniteValueDecodesToNaN) {
  Rng rng(27);
  const std::size_t n = 600;  // chunks [0, 256), [256, 512), [512, 600)
  struct Plant {
    std::size_t at;
    float value;
    std::size_t second = 0;  // a second planted position when non-zero
    float second_value = 0.0F;
  };
  const std::vector<Plant> plants = {
      {0, kNaN},   {100, kNaN},          {255, kInf},
      {300, -kInf}, {599, kNaN},         {520, kInf, 530, -kInf},
      {256, 3e38F, 400, -3e38F}};  // finite values whose range overflows
  for (const Plant& p : plants) {
    SCOPED_TRACE("planted at " + std::to_string(p.at));
    std::vector<float> v(n);
    for (float& x : v) x = rng.normal(0.0F, 1.0F);
    v[p.at] = p.value;
    if (p.second != 0) v[p.second] = p.second_value;
    const std::size_t bad = p.at / kChunk;
    const std::vector<float> got = round_trip(v, Codec::kInt8);
    const std::vector<std::uint8_t> bytes = codec_encode(v, Codec::kInt8);
    ASSERT_TRUE(same_floats(codec_decode(bytes), got));
    std::size_t offset = 9;
    for (std::size_t c = 0; c * kChunk < n; ++c) {
      const std::size_t start = c * kChunk;
      const std::size_t len = std::min(kChunk, n - start);
      float lo = 0.0F;
      float scale = 0.0F;
      std::memcpy(&lo, bytes.data() + offset, 4);
      std::memcpy(&scale, bytes.data() + offset + 4, 4);
      const std::vector<std::uint8_t> codes(
          bytes.begin() + static_cast<std::ptrdiff_t>(offset + 8),
          bytes.begin() + static_cast<std::ptrdiff_t>(offset + 8 + len));
      offset += 8 + len;
      const std::vector<float> slice(
          got.begin() + static_cast<std::ptrdiff_t>(start),
          got.begin() + static_cast<std::ptrdiff_t>(start + len));
      if (c == bad) {
        EXPECT_TRUE(std::isnan(lo));
        EXPECT_EQ(scale, 1.0F);
        EXPECT_EQ(codes, std::vector<std::uint8_t>(len, 0));
        for (const float x : slice) EXPECT_TRUE(std::isnan(x));
      } else {
        const std::vector<float> clean(
            v.begin() + static_cast<std::ptrdiff_t>(start),
            v.begin() + static_cast<std::ptrdiff_t>(start + len));
        EXPECT_TRUE(same_floats(
            slice, codec_ref::decode(codec_ref::encode(clean, Codec::kInt8))));
      }
    }
  }
  // The case a diverged client's upload used to hide: the NaN became -0.2.
  const std::vector<float> got =
      round_trip({0.1F, -0.2F, kNaN, 0.3F}, Codec::kInt8);
  for (const float x : got) EXPECT_TRUE(std::isnan(x));
}

// float16 keeps NaN and ±inf, and still saturates finite overflow.
TEST(CodecKernel, Float16KeepsNonFiniteValuesAndSaturatesFiniteOnes) {
  const std::vector<float> v = {kNaN, kInf, -kInf, 1e6F, -1e6F, 65504.0F,
                                1.0F, -0.0F};
  const std::vector<float> got = round_trip(v, Codec::kFloat16);
  EXPECT_TRUE(same_floats(codec_decode(codec_encode(v, Codec::kFloat16)), got));
  ASSERT_EQ(got.size(), v.size());
  EXPECT_TRUE(std::isnan(got[0]));
  EXPECT_EQ(got[1], kInf);
  EXPECT_EQ(got[2], -kInf);
  EXPECT_EQ(got[3], 65504.0F);
  EXPECT_EQ(got[4], -65504.0F);
  EXPECT_EQ(got[5], 65504.0F);
  EXPECT_EQ(got[6], 1.0F);
  EXPECT_TRUE(std::signbit(got[7]));
}

// A chunk whose range is a few subnormal steps has (hi - lo) / 255 round
// to a zero scale. The quotients are then NaN (at lo) or +inf; both
// become defined codes (0 and 255), and every value decodes to lo.
TEST(CodecKernel, AScaleThatUnderflowsToZeroIsDefined) {
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> v = {0.0F, tiny, 2.0F * tiny, tiny};
  const std::vector<std::uint8_t> bytes = codec_encode(v, Codec::kInt8);
  float scale = 1.0F;
  std::memcpy(&scale, bytes.data() + 13, sizeof scale);
  EXPECT_EQ(scale, 0.0F);
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin() + 17, bytes.end()),
            (std::vector<std::uint8_t>{0, 255, 255, 255}));
  const std::vector<float> got = round_trip(v, Codec::kInt8);
  for (const float x : got) EXPECT_EQ(x, 0.0F);
  EXPECT_TRUE(same_floats(codec_decode(bytes), got));
}

}  // namespace
}  // namespace fms
