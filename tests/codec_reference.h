// The payload codec's scalar encode/decode loops as they stood before the
// int8 quantizer moved into vector lanes, kept verbatim as the oracle of
// `ctest -L kernels` (tests/test_kernels_codec.cpp): one ByteWriter call
// per encoded value, one bounds-checked ByteReader read per decoded value.
// Inputs must be finite: these loops map a float16 NaN or infinity to
// ±65504, hide an int8 NaN behind the chunk's grid, and cast a NaN
// quotient to an integer (undefined behaviour); the library defines all
// three (src/fed/compression.h).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/serialize.h"
#include "src/fed/compression.h"

namespace fms::codec_ref {

constexpr std::size_t kInt8ChunkSize = 256;

inline std::uint16_t float_to_half(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, 4);
  const std::uint32_t sign = (x >> 16) & 0x8000U;
  std::int32_t exp = static_cast<std::int32_t>((x >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mant = x & 0x7FFFFFU;
  if (exp <= 0) {
    return static_cast<std::uint16_t>(sign);
  }
  if (exp >= 31) {
    return static_cast<std::uint16_t>(sign | 0x7BFFU);
  }
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

inline float half_to_float(std::uint16_t h) {
  const std::uint32_t sign = (h & 0x8000U) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1FU;
  const std::uint32_t mant = h & 0x3FFU;
  std::uint32_t x;
  if (exp == 0) {
    x = sign;
  } else if (exp == 31) {
    x = sign | 0x7F800000U | (mant << 13);
  } else {
    x = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &x, 4);
  return f;
}

inline std::vector<std::uint8_t> encode(std::span<const float> values,
                                        Codec codec) {
  ByteWriter w;
  w.write(static_cast<std::uint8_t>(codec));
  w.write(static_cast<std::uint64_t>(values.size()));
  switch (codec) {
    case Codec::kFloat32: {
      for (float v : values) w.write(v);
      break;
    }
    case Codec::kFloat16: {
      for (float v : values) w.write(float_to_half(v));
      break;
    }
    case Codec::kInt8: {
      for (std::size_t start = 0; start < values.size();
           start += kInt8ChunkSize) {
        const std::size_t end =
            std::min(values.size(), start + kInt8ChunkSize);
        float lo = values[start], hi = values[start];
        for (std::size_t i = start; i < end; ++i) {
          lo = std::min(lo, values[i]);
          hi = std::max(hi, values[i]);
        }
        const float scale = (hi - lo) > 0.0F ? (hi - lo) / 255.0F : 1.0F;
        w.write(lo);
        w.write(scale);
        for (std::size_t i = start; i < end; ++i) {
          const float q = std::round((values[i] - lo) / scale);
          w.write(static_cast<std::uint8_t>(
              std::clamp(q, 0.0F, 255.0F)));
        }
      }
      break;
    }
  }
  return w.take();
}

inline std::vector<float> decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const auto codec = static_cast<Codec>(r.read<std::uint8_t>());
  const auto n = static_cast<std::size_t>(r.read<std::uint64_t>());
  std::vector<float> out;
  out.reserve(n);
  switch (codec) {
    case Codec::kFloat32: {
      for (std::size_t i = 0; i < n; ++i) out.push_back(r.read<float>());
      break;
    }
    case Codec::kFloat16: {
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(half_to_float(r.read<std::uint16_t>()));
      }
      break;
    }
    case Codec::kInt8: {
      std::size_t remaining = n;
      while (remaining > 0) {
        const std::size_t chunk = std::min(remaining, kInt8ChunkSize);
        const float lo = r.read<float>();
        const float scale = r.read<float>();
        for (std::size_t i = 0; i < chunk; ++i) {
          out.push_back(lo + scale * static_cast<float>(r.read<std::uint8_t>()));
        }
        remaining -= chunk;
      }
      break;
    }
    default:
      FMS_CHECK_MSG(false, "corrupt codec tag");
  }
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in compressed payload");
  return out;
}

}  // namespace fms::codec_ref
