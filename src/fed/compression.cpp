#include "src/fed/compression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/check.h"
#include "src/obs/work.h"

namespace fms {
namespace {

constexpr std::size_t kInt8ChunkSize = 256;  // values per quantization chunk
constexpr std::size_t kHeaderBytes = 1 + 8;  // codec tag + value count

// --- IEEE binary16 conversion (round-to-nearest) ---
std::uint16_t float_to_half(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, 4);
  const std::uint32_t sign = (x >> 16) & 0x8000U;
  if ((x & 0x7F800000U) == 0x7F800000U) {
    // NaN stays a (quiet) NaN and ±inf stays ±inf.
    return static_cast<std::uint16_t>(sign |
                                      ((x & 0x7FFFFFU) != 0 ? 0x7E00U : 0x7C00U));
  }
  std::int32_t exp = static_cast<std::int32_t>((x >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mant = x & 0x7FFFFFU;
  if (exp <= 0) {
    // Underflow to signed zero (denormals flushed — fine for weights).
    return static_cast<std::uint16_t>(sign);
  }
  if (exp >= 31) {
    // Finite overflow to max finite magnitude (safer than inf for training).
    return static_cast<std::uint16_t>(sign | 0x7BFFU);
  }
  // Round to nearest even on the dropped 13 bits.
  const std::uint32_t rounded = mant + 0x0FFFU + ((mant >> 13) & 1U);
  if (rounded & 0x800000U) {
    ++exp;
    if (exp >= 31) return static_cast<std::uint16_t>(sign | 0x7BFFU);
    return static_cast<std::uint16_t>(sign |
                                      (static_cast<std::uint32_t>(exp) << 10));
  }
  return static_cast<std::uint16_t>(
      sign | (static_cast<std::uint32_t>(exp) << 10) | (rounded >> 13));
}

float half_to_float(std::uint16_t h) {
  const std::uint32_t sign = (h & 0x8000U) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1FU;
  const std::uint32_t mant = h & 0x3FFU;
  std::uint32_t x;
  if (exp == 0) {
    x = sign;  // flushed denormals
  } else if (exp == 31) {
    x = sign | 0x7F800000U | (mant << 13);
  } else {
    x = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &x, 4);
  return f;
}

// --- int8: kLanes values side by side, in the compiler's generic vectors
// (one register on AVX-512, lowered to narrower ones elsewhere). As in
// src/agg, lanes are only loaded and stored through memory, never passed
// by value, so no function's ABI depends on the target's vector width.
constexpr std::size_t kLanes = 16;
using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));
using LaneInts =
    std::int32_t __attribute__((vector_size(kLanes * sizeof(std::int32_t))));
using LaneCodes = std::uint8_t __attribute__((vector_size(kLanes)));

// One chunk's affine grid, as the wire carries it.
struct Grid {
  float lo = 0.0F;
  float scale = 1.0F;
};

// count <= kLanes elements of kBytes each from src to dst: a full block
// is one fixed-size copy (one vector load or store), the short last block
// of a chunk a shorter one.
template <std::size_t kBytes>
void copy_block(void* dst, const void* src, std::size_t count) {
  if (count == kLanes) {
    std::memcpy(dst, src, kLanes * kBytes);
  } else {
    std::memcpy(dst, src, count * kBytes);
  }
}

// The grid of one chunk of n >= 1 values: lo and hi are the strict-<
// folds `lo = v < lo ? v : lo`, `hi = hi < v ? v : hi` in value order,
// taken per lane and then across lanes (padding a short block with v[0]
// changes neither). Finite values that compare equal are bit-equal
// except ±0, so only a zero minimum needs the first zero's sign restored
// (hi's sign cannot change hi - lo's value or sign).
Grid chunk_grid(const float* v, std::size_t n) {
  Lanes lo = Lanes{} + v[0];
  copy_block<sizeof(float)>(&lo, v, std::min(kLanes, n));
  Lanes hi = lo;
  LaneInts nan = lo != lo;
  for (std::size_t i = kLanes; i < n; i += kLanes) {
    Lanes x = Lanes{} + v[0];
    copy_block<sizeof(float)>(&x, v + i, std::min(kLanes, n - i));
    lo = x < lo ? x : lo;
    hi = hi < x ? x : hi;
    nan |= x != x;
  }
  float l = lo[0];
  float h = hi[0];
  bool any_nan = nan[0] != 0;
  for (std::size_t k = 1; k < kLanes; ++k) {
    l = lo[k] < l ? lo[k] : l;
    h = h < hi[k] ? hi[k] : h;
    any_nan = any_nan || nan[k] != 0;
  }
  const float range = h - l;
  if (any_nan || !std::isfinite(range)) {
    return {std::numeric_limits<float>::quiet_NaN(), 1.0F};
  }
  // fms-lint: allow(float-eq) -- exact zero: ±0 is the one tie with two
  // bit patterns
  if (l == 0.0F) l = *std::find(v, v + n, 0.0F);
  return {l, range > 0.0F ? range / 255.0F : 1.0F};
}

// The one quantizer: count <= kLanes codes, round-half-away((x - lo) /
// scale) clamped to [0, 255]. A finite chunk's quotients are >= 0, where
// trunc(q) + (q - trunc(q) >= 0.5) is round-half-away exactly; clamping
// into [0, 256] first keeps the int conversion defined and sends a NaN
// quotient (a NaN grid, or 0/0 when scale underflowed to 0) to code 0.
void quantize(const float* x, std::size_t count, const Grid& g,
              std::uint8_t* codes) {
  Lanes v = {};
  copy_block<sizeof(float)>(&v, x, count);
  const Lanes zero = {};
  Lanes q = (v - g.lo) / g.scale;
  q = q >= 0.0F ? q : zero;
  q = q < 256.0F ? q : zero + 256.0F;
  LaneInts code = __builtin_convertvector(q, LaneInts);
  const Lanes frac = q - __builtin_convertvector(code, Lanes);
  code -= frac >= 0.5F;  // a true lane is -1
  code = code < 255 ? code : LaneInts{} + 255;
  const LaneCodes bytes = __builtin_convertvector(code, LaneCodes);
  copy_block<1>(codes, &bytes, count);
}

// The one dequantizer: count <= kLanes values lo + scale * code, in the
// scalar expression's form so FMA contraction (or its absence) is the
// same.
void dequantize(const std::uint8_t* codes, std::size_t count, const Grid& g,
                float* out) {
  LaneCodes bytes = {};
  copy_block<1>(&bytes, codes, count);
  const Lanes code = __builtin_convertvector(bytes, Lanes);
  const Lanes v = g.lo + g.scale * code;
  copy_block<sizeof(float)>(out, &v, count);
}

// One chunk of n values: its codes into `codes`, and its grid.
Grid encode_chunk(const float* v, std::size_t n, std::uint8_t* codes) {
  const Grid g = chunk_grid(v, n);
  for (std::size_t i = 0; i < n; i += kLanes) {
    quantize(v + i, std::min(kLanes, n - i), g, codes + i);
  }
  return g;
}

void decode_chunk(const std::uint8_t* codes, std::size_t n, const Grid& g,
                  float* out) {
  for (std::size_t i = 0; i < n; i += kLanes) {
    dequantize(codes + i, std::min(kLanes, n - i), g, out + i);
  }
}

template <class T>
std::uint8_t* put(std::uint8_t* p, const T& v) {
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}

template <class T>
const std::uint8_t* get(const std::uint8_t* p, T& v) {
  std::memcpy(&v, p, sizeof v);
  return p + sizeof v;
}

}  // namespace

const char* codec_name(Codec c) {
  switch (c) {
    case Codec::kFloat32: return "float32";
    case Codec::kFloat16: return "float16";
    case Codec::kInt8: return "int8";
  }
  return "unknown";
}

std::vector<std::uint8_t> codec_encode(std::span<const float> values,
                                       Codec codec) {
  const std::size_t n = values.size();
  std::vector<std::uint8_t> out(codec_encoded_bytes(n, codec));
  FMS_CHECK_MSG(!out.empty(), "unknown codec");
  std::uint8_t* p = put(out.data(), static_cast<std::uint8_t>(codec));
  p = put(p, static_cast<std::uint64_t>(n));
  switch (codec) {
    case Codec::kFloat32:
      if (n != 0) std::memcpy(p, values.data(), n * sizeof(float));
      break;
    case Codec::kFloat16:
      for (const float v : values) p = put(p, float_to_half(v));
      break;
    case Codec::kInt8:
      for (std::size_t start = 0; start < n; start += kInt8ChunkSize) {
        const std::size_t len = std::min(kInt8ChunkSize, n - start);
        const Grid g = encode_chunk(values.data() + start, len, p + 8);
        p = put(put(p, g.lo), g.scale) + len;
      }
      break;
  }
  return out;
}

std::vector<float> codec_decode(const std::vector<std::uint8_t>& bytes) {
  FMS_CHECK_MSG(bytes.size() >= kHeaderBytes, "truncated compressed payload");
  std::uint8_t tag = 0;
  std::uint64_t count = 0;
  const std::uint8_t* p = get(get(bytes.data(), tag), count);
  FMS_CHECK_MSG(tag <= static_cast<std::uint8_t>(Codec::kInt8),
                "corrupt codec tag");
  const auto codec = static_cast<Codec>(tag);
  // Every codec spends at least one byte per value, so this bound keeps a
  // corrupted count from overflowing the size computation.
  FMS_CHECK_MSG(count <= bytes.size() - kHeaderBytes,
                "truncated compressed payload");
  const auto n = static_cast<std::size_t>(count);
  FMS_CHECK_MSG(bytes.size() == codec_encoded_bytes(n, codec),
                "compressed payload size does not match its count");
  std::vector<float> out(n);
  switch (codec) {
    case Codec::kFloat32:
      if (n != 0) std::memcpy(out.data(), p, n * sizeof(float));
      break;
    case Codec::kFloat16:
      for (float& v : out) {
        std::uint16_t h = 0;
        p = get(p, h);
        v = half_to_float(h);
      }
      break;
    case Codec::kInt8:
      for (std::size_t start = 0; start < n; start += kInt8ChunkSize) {
        const std::size_t len = std::min(kInt8ChunkSize, n - start);
        Grid g;
        p = get(get(p, g.lo), g.scale);
        decode_chunk(p, len, g, out.data() + start);
        p += len;
      }
      break;
  }
  return out;
}

std::size_t codec_encoded_bytes(std::size_t n, Codec codec) {
  switch (codec) {
    case Codec::kFloat32:
      return kHeaderBytes + 4 * n;
    case Codec::kFloat16:
      return kHeaderBytes + 2 * n;
    case Codec::kInt8: {
      const std::size_t chunks = (n + kInt8ChunkSize - 1) / kInt8ChunkSize;
      return kHeaderBytes + chunks * 8 + n;
    }
  }
  return 0;
}

void codec_round_trip(std::span<float> values, Codec codec) {
  if (codec == Codec::kFloat32) return;
  FMS_OP("fed.compress", obs::copy_cost(values.size()));
  if (codec == Codec::kFloat16) {
    for (float& v : values) v = half_to_float(float_to_half(v));
    return;
  }
  std::uint8_t codes[kInt8ChunkSize] = {};
  for (std::size_t start = 0; start < values.size(); start += kInt8ChunkSize) {
    const std::size_t len = std::min(kInt8ChunkSize, values.size() - start);
    float* chunk = values.data() + start;
    decode_chunk(codes, len, encode_chunk(chunk, len, codes), chunk);
  }
}

}  // namespace fms
