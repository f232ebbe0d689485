// Binary serialization with exact byte accounting.
//
// The paper's efficiency claims hinge on payload sizes (a sub-model is
// ~1/N of the supernet), so every message in the federated substrate is
// actually serialized and its size measured rather than estimated.
//
// One walk per layout. A persisted type lists its fields once, in a
// `template <class Io, class Self> static void walk(Io&, Self&)` that
// writes them when handed a ByteWriter (`Self` is then const) and reads
// them back, in the same order, when handed a ByteReader. Both classes
// take the same fields through `operator()`:
//   * a trivially copyable value, stored as its bytes;
//   * a std::vector of such values or a std::string, after a u64 length;
//   * `as<Stored>(field)`, a field stored as another type: a bool as u8,
//     a size_t as u64, an enum as i32, a vector<int> as vector<int8_t>,
//     a message as its serialized bytes;
//   * a part that persists itself through `serialize(ByteWriter&) const`
//     and `restore(ByteReader&)`.
// `magic`, `each` and `each_fixed` spell a file tag and u32-counted runs
// the same way, and `part` a part whose reader takes its owner's shapes
// to check against. Checks only a read can make sit under
// `if constexpr (Io::kReading)`. A byte layout is thus one function: a
// field written but never read, or read out of order, cannot be spelled.
// The per-direction primitives (write/read and their vector and string
// forms) stay public for callers that hand-assemble a buffer.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/check.h"

namespace fms {

// A field persisted as `Stored`; see as().
template <class Stored, class Field>
struct As {
  Field& field;
};

template <class Stored, class Field>
As<Stored, Field> as(Field& field) {
  return {field};
}

// Converts a field to or from its stored type: a range element by
// element, a message through its serialize()/deserialize().
template <class To, class From>
To stored_cast(const From& v) {
  if constexpr (requires { v.serialize(); }) {
    return v.serialize();  // a message as its own length-prefixed blob
  } else if constexpr (requires { To::deserialize(v); }) {
    return To::deserialize(v);
  } else if constexpr (requires { v.begin(); }) {
    return To(v.begin(), v.end());
  } else {
    return static_cast<To>(v);
  }
}

class ByteWriter {
 public:
  static constexpr bool kReading = false;

  template <class... Fields>
  void operator()(const Fields&... fields) {
    (put(fields), ...);
  }

  // A file tag; the reader fails with `what` when it differs.
  void magic(std::uint32_t tag, const char* /*what*/) { write(tag); }

  // A u32 count, then each element through `f`; a map entry writes its
  // key, then its value through `f`.
  template <class Seq, class F>
  void each(const Seq& seq, F&& f) {
    write(static_cast<std::uint32_t>(seq.size()));
    for (const auto& e : seq) {
      if constexpr (requires { e.second; }) {
        put(e.first);
        f(e.second);
      } else {
        f(e);
      }
    }
  }

  // As each(), for a run the reader must find as long as its live `seq`.
  template <class Seq, class F>
  void each_fixed(const Seq& seq, const char* /*what*/, F&& f) {
    each(seq, f);
  }

  // A part whose reader checks it against its owner's live `shape`.
  template <class Part, class... Shape>
  void part(const Part& p, const Shape&... /*shape*/) {
    p.serialize(*this);
  }

  template <typename T>
  void write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(reinterpret_cast<const std::uint8_t*>(&v), sizeof(T));
  }

  template <typename T>
  void write_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(static_cast<std::uint64_t>(v.size()));
    append(reinterpret_cast<const std::uint8_t*>(v.data()),
           v.size() * sizeof(T));
  }

  void write_string(const std::string& s) {
    write(static_cast<std::uint64_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (requires { v.serialize(*this); }) {
      v.serialize(*this);
    } else {
      write(v);
    }
  }
  template <class T>
  void put(const std::vector<T>& v) {
    write_vector(v);
  }
  void put(const std::string& s) { write_string(s); }
  template <class Stored, class Field>
  void put(const As<Stored, Field>& a) {
    put(stored_cast<Stored>(a.field));
  }

  // Kept out of line: GCC 12 under -fsanitize=thread, with this insert
  // inlined into a caller writing a small scalar, reports a false
  // -Wstringop-overflow (an error under -Werror).
  [[gnu::noinline]] void append(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  static constexpr bool kReading = true;

  template <class... Fields>
  void operator()(Fields&&... fields) {
    (get(fields), ...);
  }

  void magic(std::uint32_t tag, const char* what) {
    FMS_CHECK_MSG(read<std::uint32_t>() == tag, what);
  }

  // Empties `seq`, reads a u32 count and appends that many elements, each
  // read through `f` (a map entry: its key, then its value). Elements
  // arrive one at a time, so a corrupt count runs out of bytes rather
  // than allocating.
  template <class Seq, class F>
  void each(Seq& seq, F&& f) {
    seq.clear();
    const auto n = read<std::uint32_t>();
    for (std::uint32_t i = 0; i < n; ++i) {
      if constexpr (requires { seq.begin()->second; }) {
        f(seq[read<typename Seq::key_type>()]);
      } else {
        f(seq.emplace_back());
      }
    }
  }

  // Reads a u32 count that must equal the live `seq`'s size (`what`
  // names its elements), then each element in place through `f`.
  template <class Seq, class F>
  void each_fixed(Seq& seq, const char* what, F&& f) {
    const auto n = read<std::uint32_t>();
    FMS_CHECK_MSG(n == seq.size(), "checkpoint has " << n << " " << what
                                       << ", live state has " << seq.size());
    for (auto& e : seq) f(e);
  }

  template <class Part, class... Shape>
  void part(Part& p, const Shape&... shape) {
    p.restore(*this, shape...);
  }

  template <typename T>
  T read() {
    T v;
    get(v);
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
  template <class T>
  void get(T& v) {
    if constexpr (requires { v.restore(*this); }) {
      v.restore(*this);
    } else {
      static_assert(std::is_trivially_copyable_v<T>);
      FMS_CHECK_MSG(pos_ + sizeof(T) <= buf_.size(), "ByteReader underflow");
      std::memcpy(&v, buf_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
    }
  }
  template <class T>
  void get(std::vector<T>& v) {
    v = read_vector<T>();
  }
  void get(std::string& s) { s = read_string(); }
  template <class Stored, class Field>
  void get(As<Stored, Field>& a) {
    Stored stored{};
    get(stored);
    a.field = stored_cast<Field>(stored);
  }

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

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
