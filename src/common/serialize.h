// Binary serialization with exact byte accounting.
//
// The paper's efficiency claims hinge on payload sizes (a sub-model is
// ~1/N of the supernet), so every message in the federated substrate is
// actually serialized and its size measured rather than estimated.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/check.h"

namespace fms {

class ByteWriter {
 public:
  template <typename T>
  void write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  template <typename T>
  void write_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  void write_string(const std::string& s) {
    write(static_cast<std::uint64_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    FMS_CHECK_MSG(pos_ + sizeof(T) <= buf_.size(), "ByteReader underflow");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    auto n = read<std::uint64_t>();
    // Divide instead of multiplying: a corrupted length field must fail
    // the bounds check, not wrap the multiplication and pass it.
    FMS_CHECK_MSG(n <= (buf_.size() - pos_) / sizeof(T),
                  "ByteReader underflow");
    std::vector<T> v(static_cast<std::size_t>(n));
    // An empty vector's data() may be null, which memcpy must not see.
    if (n != 0) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  std::string read_string() {
    auto n = read<std::uint64_t>();
    FMS_CHECK_MSG(pos_ + n <= buf_.size(), "ByteReader underflow");
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += n;
    return s;
  }

  bool exhausted() const { return pos_ == buf_.size(); }
  std::size_t position() const { return pos_; }

 private:
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

inline double bytes_to_mb(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// --- CRC32 framing (durability path: journal frames, checkpoint trailer) ---
//
// Standard CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), computed over a
// byte span. The table is built once per process; the function is pure.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                           std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFU] ^ (crc >> 8);
  }
  return ~crc;
}

inline std::uint32_t crc32(const std::vector<std::uint8_t>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

// Length-prefixed CRC frame: [u32 payload length][u32 crc32(payload)][payload].
// The fixed 8-byte prologue lets a tolerant reader detect a torn tail (short
// prologue, short payload, or CRC mismatch) and truncate exactly there.
inline constexpr std::size_t kFrameHeaderBytes = 8;

inline void append_crc_frame(std::vector<std::uint8_t>& out,
                             const std::vector<std::uint8_t>& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);
  const auto* lp = reinterpret_cast<const std::uint8_t*>(&len);
  const auto* cp = reinterpret_cast<const std::uint8_t*>(&crc);
  out.insert(out.end(), lp, lp + sizeof(len));
  out.insert(out.end(), cp, cp + sizeof(crc));
  out.insert(out.end(), payload.begin(), payload.end());
}

// Tolerant frame extraction: reads the frame starting at `pos` in `buf`.
// On success advances `pos` past the frame and fills `payload`; returns
// false (leaving `pos` untouched) when the remaining bytes do not form a
// complete, CRC-valid frame — the torn-tail signal.
inline bool next_crc_frame(const std::vector<std::uint8_t>& buf,
                           std::size_t& pos,
                           std::vector<std::uint8_t>* payload) {
  if (buf.size() - pos < kFrameHeaderBytes) return false;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, buf.data() + pos, sizeof(len));
  std::memcpy(&crc, buf.data() + pos + sizeof(len), sizeof(crc));
  if (len > buf.size() - pos - kFrameHeaderBytes) return false;
  const std::uint8_t* body = buf.data() + pos + kFrameHeaderBytes;
  if (crc32(body, len) != crc) return false;
  payload->assign(body, body + len);
  pos += kFrameHeaderBytes + len;
  return true;
}

}  // namespace fms
