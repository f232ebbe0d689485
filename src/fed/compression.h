// Lossy payload compression for federated messages.
//
// The paper's efficiency argument is about *what* is shipped (sub-models
// instead of the supernet); an orthogonal production lever is *how* it is
// shipped. This module provides three codecs for float payloads:
//
//   kFloat32 — raw (lossless, 4 B/value; the default everywhere),
//   kFloat16 — IEEE binary16 (2 B/value, ~1e-3 relative error),
//   kInt8    — per-chunk affine quantization (1 B/value + per-chunk
//              lo and scale).
//
// FederatedSearch applies a codec to both the sub-model download and the
// gradient upload (SearchOptions::codec) with codec_round_trip, in place:
// the quantization noise flows through training exactly as it would in a
// real deployment, and bench_ablation_compression measures the
// bytes-vs-accuracy trade-off. codec_encode / codec_decode produce and
// read the wire bytes, whose size codec_encoded_bytes gives.
//
// int8: every 256-value chunk gets lo = its minimum (the first of equal
// values, so a minimum zero keeps the first zero's sign), scale =
// (hi - lo) / 255 (1 when hi - lo is not positive), and one code per value,
// round-half-away((v - lo) / scale) clamped to [0, 255]; a value decodes
// to lo + scale * code. One quantizer and one dequantizer, over 16-value
// vector lanes, serve all three entry points, so the round trip is
// exactly decode(encode(v)) without the bytes.
//
// Non-finite values are never hidden:
//   - an int8 chunk that holds a NaN or an infinity, or whose hi - lo
//     overflows, is encoded with lo = NaN, scale = 1 and codes 0, so every
//     value in it decodes to NaN;
//   - float16 keeps NaN as NaN and ±inf as ±inf; finite values beyond its
//     range still saturate at ±65504, and magnitudes below its normal
//     range flush to a signed zero.
// A client whose training diverged thus reaches the update screen with
// its NaN, whatever the codec.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fms {

enum class Codec { kFloat32, kFloat16, kInt8 };

const char* codec_name(Codec c);

// Encodes values; the buffer is self-describing (codec tag + count).
std::vector<std::uint8_t> codec_encode(std::span<const float> values,
                                       Codec codec);
// Decodes a buffer produced by codec_encode.
std::vector<float> codec_decode(const std::vector<std::uint8_t>& bytes);

// Size in bytes that encoding n values with the codec produces.
std::size_t codec_encoded_bytes(std::size_t n, Codec codec);

// One lossy round trip in place: leaves in `values` what the receiver of
// codec_decode(codec_encode(values, codec)) sees, bit for bit, without
// building the bytes. A no-op for kFloat32.
void codec_round_trip(std::span<float> values, Codec codec);

}  // namespace fms
