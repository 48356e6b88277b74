// The one binary encoding shared by every on-disk and on-wire format: the
// run journal (core/journal) and the forked-worker pipe (core/proc).
//
// Encoding: fixed-width integers and doubles are native-endian memcpy
// images (every format here stays on one machine, never an interchange
// format); strings and POD arrays are a u32 element count followed by the
// raw elements.  Integrity: CRC-32 (IEEE 802.3, reflected polynomial
// 0xEDB88320) over every byte before it, appended by Writer::seal() and
// checked by sealed().  Framing: the record-style formats share one shape,
//
//   u32 magic | head (fixed size) | u32 payload_len | payload | u32 crc
//
// walked by scan_frame().  Each format keeps its own magic, head fields,
// payload cap and error policy; this module only reports what it found.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cgs::util::wire {

/// Append-only encoder into a byte vector.
class Writer {
 public:
  Writer() = default;
  /// Pre-size the buffer when the caller can estimate the encoded size.
  explicit Writer(std::size_t reserve) { out_.reserve(reserve); }

  /// Uncounted bytes (a fixed-size tag, or data whose length is implied).
  Writer& raw(const void* p, std::size_t n) {
    if (n == 0) return *this;
    const std::size_t off = out_.size();
    out_.resize(off + n);
    std::memcpy(out_.data() + off, p, n);
    return *this;
  }
  Writer& u8(std::uint8_t v) { return raw(&v, sizeof v); }
  Writer& u32(std::uint32_t v) { return raw(&v, sizeof v); }
  Writer& u64(std::uint64_t v) { return raw(&v, sizeof v); }
  Writer& i64(std::int64_t v) { return raw(&v, sizeof v); }
  Writer& f64(double v) { return raw(&v, sizeof v); }

  /// u32 byte count, then the bytes.
  Writer& str(std::string_view s) {
    return u32(std::uint32_t(s.size())).raw(s.data(), s.size());
  }

  /// u32 element count, then the elements' memory image.
  template <class T>
  Writer& pod(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return u32(std::uint32_t(v.size())).raw(v.data(), v.size() * sizeof(T));
  }

  /// Append the CRC of everything written so far.
  Writer& seal();

  /// The encoded bytes; the writer is empty afterwards.
  [[nodiscard]] std::vector<unsigned char> take() { return std::move(out_); }

 private:
  std::vector<unsigned char> out_;
};

/// Bounds-checked decoder over a byte range it does not own.  An overrun
/// is sticky: the failing read and every read after it return zero/empty
/// and ok() turns false, so a decoder can read a whole structure and check
/// once.  Every count is checked against the bytes left before anything
/// is allocated for it.
class Reader {
 public:
  Reader(const unsigned char* data, std::size_t size)
      : p_(data), left_(size) {}

  /// Copy `n` uncounted bytes into `out` (zeroes on overrun).
  void raw(void* out, std::size_t n) {
    if (n == 0) return;
    if (take(n)) {
      std::memcpy(out, p_ - n, n);
    } else {
      std::memset(out, 0, n);
    }
  }
  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }

  /// A u32 count of elements that each occupy at least `min_bytes` bytes
  /// on the wire.  A count the remaining bytes cannot hold is an overrun
  /// (returns 0), so it is safe to reserve() or loop on the result.
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (std::uint64_t(n) * min_bytes <= left_) return n;
    fail();
    return 0;
  }

  std::string str() {
    const std::uint32_t n = count(1);
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }

  template <class T>
  std::vector<T> pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> v(count(sizeof(T)));
    raw(v.data(), v.size() * sizeof(T));
    return v;
  }

  /// No read has overrun.
  [[nodiscard]] bool ok() const { return !bad_; }
  /// No read has overrun and every byte was consumed.
  [[nodiscard]] bool done() const { return !bad_ && left_ == 0; }
  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t left() const { return left_; }

 private:
  bool take(std::size_t n) {
    if (left_ < n) return fail();  // after an overrun left_ is 0
    p_ += n;
    left_ -= n;
    return true;
  }

  /// Record an overrun; every later read fails too.
  bool fail() {
    bad_ = true;
    left_ = 0;
    return false;
  }

  template <class T>
  T scalar() {
    T v{};
    raw(&v, sizeof v);
    return v;
  }

  const unsigned char* p_;
  std::size_t left_;
  bool bad_ = false;
};

/// True when `n` >= 4 and the last four bytes of [data, data + n) are the
/// CRC of the bytes before them (what Writer::seal() appends).
[[nodiscard]] bool sealed(const unsigned char* data, std::size_t n);

/// What scan_frame() found at the front of a buffer.
enum class Scan : std::uint8_t {
  kFrame,      // one intact frame
  kShort,      // not enough bytes yet for the fixed part or the payload
  kBadMagic,   // the first four bytes are not the format's magic
  kOversized,  // the length field exceeds the format's payload cap
  kBadCrc,     // complete, but the trailing CRC does not match
};

/// One scanned frame.  `size` is known from kOversized on (the whole
/// frame's byte count, CRC included); `head` and `payload` point into the
/// scanned buffer, so they live as long as it does.
struct FrameView {
  Scan status = Scan::kShort;
  std::size_t size = 0;
  std::uint32_t payload_len = 0;
  const unsigned char* head = nullptr;
  const unsigned char* payload = nullptr;
};

/// Walk one `u32 magic | head | u32 len | payload | u32 crc` frame at the
/// front of [data, data + n).  Checks run in order: the fixed part is
/// present, the magic matches, len <= max_payload, the payload and CRC are
/// present, the CRC matches; the first failure is the status.
[[nodiscard]] FrameView scan_frame(const unsigned char* data, std::size_t n,
                                   std::uint32_t magic, std::size_t head_size,
                                   std::uint32_t max_payload);

}  // namespace cgs::util::wire
