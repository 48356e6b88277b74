// util/wire unit tests: the fixed-width and counted encodings, the CRC
// seal, the Reader's sticky overrun and count checks, every status
// scan_frame can report, and a deterministic fuzz pass over scan_frame.
#include "util/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cgs::util::wire {
namespace {

constexpr std::uint32_t kMagic = 0x54534554u;  // "TEST"

/// magic | 2-byte head | payload | crc.
std::vector<unsigned char> frame(std::string_view payload,
                                 std::uint32_t magic = kMagic) {
  Writer w;
  w.u32(magic).u8(7).u8(9).str(payload).seal();
  return w.take();
}

TEST(Wire, WriterAndReaderRoundTripEveryFieldKind) {
  Writer w;
  w.u8(0xAB).u32(0x01020304u).u64(0x1122334455667788ULL).i64(-2).f64(0.5);
  w.str("hi").pod(std::vector<std::uint16_t>{1, 2, 3}).raw("xy", 2);
  const std::vector<unsigned char> bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 8 + (4 + 2) + (4 + 6) + 2);
  if (std::endian::native == std::endian::little) {
    EXPECT_EQ(bytes[0], 0xAB);
    EXPECT_EQ(bytes[1], 0x04);  // u32 low byte first
    EXPECT_EQ(bytes[29], 2);    // str count
    EXPECT_EQ(bytes[33], 'h');
  }

  Reader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.i64(), -2);
  EXPECT_EQ(r.f64(), 0.5);
  EXPECT_EQ(r.str(), "hi");
  EXPECT_EQ(r.pod<std::uint16_t>(), (std::vector<std::uint16_t>{1, 2, 3}));
  char tail[2] = {};
  r.raw(tail, 2);
  EXPECT_EQ(std::string(tail, 2), "xy");
  EXPECT_TRUE(r.done());
}

TEST(Wire, SealAppendsTheStandardCrc32) {
  Writer w;
  w.raw("123456789", 9).seal();
  const std::vector<unsigned char> bytes = w.take();
  ASSERT_EQ(bytes.size(), 13u);
  Reader crc(bytes.data() + 9, 4);
  EXPECT_EQ(crc.u32(), 0xCBF43926u);  // the CRC-32/ISO-HDLC check value
  EXPECT_TRUE(sealed(bytes.data(), bytes.size()));

  std::vector<unsigned char> flipped = bytes;
  flipped[3] ^= 0x01;
  EXPECT_FALSE(sealed(flipped.data(), flipped.size()));
  EXPECT_FALSE(sealed(bytes.data(), 3));  // no room for a CRC
}

TEST(Wire, OverrunIsSticky) {
  const unsigned char bytes[] = {1, 2, 3, 4, 5};
  Reader r(bytes, sizeof bytes);
  EXPECT_EQ(r.u64(), 0u);  // 8 > 5 bytes left
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u) << "reads after an overrun return zero, not data";
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.left(), 0u);
}

TEST(Wire, CountLargerThanBytesLeftIsAnOverrun) {
  // A count of 3 u32 elements with only 8 bytes behind it.
  Writer w;
  w.u32(3).u32(10).u32(20);
  const std::vector<unsigned char> short_pod = w.take();
  Reader a(short_pod.data(), short_pod.size());
  EXPECT_TRUE(a.pod<std::uint32_t>().empty());
  EXPECT_FALSE(a.ok());

  // A string claiming 4 GiB.
  Writer s;
  s.u32(0xFFFFFFFFu).raw("ab", 2);
  const std::vector<unsigned char> huge = s.take();
  Reader b(huge.data(), huge.size());
  EXPECT_EQ(b.str(), "");
  EXPECT_FALSE(b.ok());

  // count() weighs each element by its minimum encoded size; an exact fit
  // is fine, one element more is not.
  Writer c;
  c.u32(2).u64(0).u64(0);
  const std::vector<unsigned char> two = c.take();
  Reader fits(two.data(), two.size());
  EXPECT_EQ(fits.count(8), 2u);
  EXPECT_TRUE(fits.ok());
  Reader over(two.data(), two.size());
  EXPECT_EQ(over.count(9), 0u);
  EXPECT_FALSE(over.ok());
}

TEST(Wire, ScanFrameReportsEachStatus) {
  const std::vector<unsigned char> f = frame("payload");
  const std::size_t fixed = 4 + 2 + 4;

  const FrameView whole = scan_frame(f.data(), f.size(), kMagic, 2, 64);
  ASSERT_EQ(whole.status, Scan::kFrame);
  EXPECT_EQ(whole.size, f.size());
  EXPECT_EQ(whole.head[0], 7);
  EXPECT_EQ(whole.head[1], 9);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(whole.payload),
                        whole.payload_len),
            "payload");

  // Every strict prefix is short: the fixed part, then the payload + CRC.
  for (std::size_t n = 0; n < f.size(); ++n) {
    EXPECT_EQ(scan_frame(f.data(), n, kMagic, 2, 64).status, Scan::kShort)
        << n << " bytes";
  }

  // Trailing bytes belong to the next frame, not this one.
  std::vector<unsigned char> two = f;
  two.insert(two.end(), f.begin(), f.end());
  const FrameView first = scan_frame(two.data(), two.size(), kMagic, 2, 64);
  EXPECT_EQ(first.status, Scan::kFrame);
  EXPECT_EQ(first.size, f.size());

  // A foreign magic is only judged once the fixed part is present.
  const std::vector<unsigned char> foreign = frame("payload", kMagic + 1);
  EXPECT_EQ(scan_frame(foreign.data(), fixed - 1, kMagic, 2, 64).status,
            Scan::kShort);
  EXPECT_EQ(scan_frame(foreign.data(), fixed, kMagic, 2, 64).status,
            Scan::kBadMagic);

  // The cap is checked from the length field alone, before the payload.
  const FrameView big = scan_frame(f.data(), fixed, kMagic, 2, 6);
  EXPECT_EQ(big.status, Scan::kOversized);
  EXPECT_EQ(big.payload_len, 7u);
  EXPECT_EQ(big.size, f.size());

  std::vector<unsigned char> corrupt = f;
  corrupt[fixed] ^= 0x20;  // first payload byte
  const FrameView bad = scan_frame(corrupt.data(), corrupt.size(), kMagic, 2,
                                   64);
  EXPECT_EQ(bad.status, Scan::kBadCrc);
  EXPECT_EQ(bad.size, f.size());
}

TEST(Wire, ScanFrameNeverFindsAFrameInGarbage) {
  // Deterministic xorshift garbage must scan as short, a bad magic, an
  // oversized length or a bad CRC — never as a frame.  Buffers that open
  // with the real magic are the interesting half of the space, so odd
  // rounds force it.
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 200; ++round) {
    std::vector<unsigned char> junk(1 + next() % 256);
    for (auto& b : junk) b = static_cast<unsigned char>(next());
    if (round % 2 == 1 && junk.size() >= 4) {
      std::memcpy(junk.data(), &kMagic, 4);
    }
    const FrameView f = scan_frame(junk.data(), junk.size(), kMagic, 2, 64);
    EXPECT_NE(f.status, Scan::kFrame) << "round " << round;
  }
}

}  // namespace
}  // namespace cgs::util::wire
