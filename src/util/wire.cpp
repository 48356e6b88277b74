#include "util/wire.hpp"

#include <array>

namespace cgs::util::wire {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace

Writer& Writer::seal() { return u32(crc32(out_.data(), out_.size())); }

bool sealed(const unsigned char* data, std::size_t n) {
  return n >= 4 && load_u32(data + n - 4) == crc32(data, n - 4);
}

FrameView scan_frame(const unsigned char* data, std::size_t n,
                     std::uint32_t magic, std::size_t head_size,
                     std::uint32_t max_payload) {
  FrameView f;
  const std::size_t fixed = 4 + head_size + 4;
  if (n < fixed) return f;
  if (load_u32(data) != magic) {
    f.status = Scan::kBadMagic;
    return f;
  }
  f.payload_len = load_u32(data + 4 + head_size);
  f.size = fixed + f.payload_len + 4;
  if (f.payload_len > max_payload) {
    f.status = Scan::kOversized;
    return f;
  }
  if (n < f.size) return f;
  f.status = sealed(data, f.size) ? Scan::kFrame : Scan::kBadCrc;
  f.head = data + 4;
  f.payload = data + fixed;
  return f;
}

}  // namespace cgs::util::wire
