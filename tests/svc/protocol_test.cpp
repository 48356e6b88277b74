// Wire-protocol tests: frame round trips, incremental parsing across
// arbitrary byte-stream fragmentation, the bad-frame taxonomy (magic, CRC,
// oversized length), kv payload round trips, and a deterministic fuzz pass
// asserting the parser classifies garbage instead of crashing.
#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cgs::svc {
namespace {

std::vector<Frame> parse_all(FrameParser& p, const unsigned char* data,
                             std::size_t n, std::size_t chunk = SIZE_MAX) {
  std::vector<Frame> out;
  std::size_t off = 0;
  while (off < n) {
    const std::size_t take = std::min(chunk, n - off);
    p.feed(data + off, take);
    off += take;
    Frame f;
    while (p.next(f) == FrameParser::Status::kFrame) out.push_back(f);
  }
  return out;
}

TEST(Svc, FrameRoundTripsThroughParser) {
  const std::string payload = "grid=smoke\nruns=3\n";
  const auto bytes = encode_frame(MsgType::kSubmit, payload);
  EXPECT_EQ(bytes.size(), kFrameOverhead + payload.size());

  FrameParser p;
  const auto frames = parse_all(p, bytes.data(), bytes.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MsgType::kSubmit);
  EXPECT_EQ(frames[0].text(), payload);
}

TEST(Svc, ParserReassemblesAcrossByteAtATimeDelivery) {
  std::vector<unsigned char> stream;
  for (int i = 0; i < 5; ++i) {
    const auto f = encode_frame(MsgType::kSnapshot,
                                "job=1\nseq=" + std::to_string(i) + "\n");
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameParser p;
  const auto frames = parse_all(p, stream.data(), stream.size(), 1);
  ASSERT_EQ(frames.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(kv_get(parse_kv(frames[i].text()), "seq"), std::to_string(i));
  }
}

TEST(Svc, EmptyPayloadFrameIsValid) {
  const auto bytes = encode_frame(MsgType::kStatus, "");
  FrameParser p;
  const auto frames = parse_all(p, bytes.data(), bytes.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MsgType::kStatus);
  EXPECT_TRUE(frames[0].payload.empty());
}

TEST(Svc, BadMagicIsTerminal) {
  auto bytes = encode_frame(MsgType::kStatus, "");
  bytes[0] ^= 0xff;
  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(p.next(f), FrameParser::Status::kBad);
  EXPECT_FALSE(p.bad_reason().empty());
  // Terminal: even good bytes afterwards stay bad (framing is lost).
  const auto good = encode_frame(MsgType::kStatus, "");
  p.feed(good.data(), good.size());
  EXPECT_EQ(p.next(f), FrameParser::Status::kBad);
}

TEST(Svc, CorruptedCrcIsTerminal) {
  auto bytes = encode_frame(MsgType::kSubmit, "grid=smoke\n");
  bytes[bytes.size() - 1] ^= 0x5a;
  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(p.next(f), FrameParser::Status::kBad);
}

TEST(Svc, CorruptedPayloadByteFailsCrc) {
  auto bytes = encode_frame(MsgType::kSubmit, "grid=smoke\n");
  bytes[kFrameOverhead - 4] ^= 0x01;  // first payload byte
  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(p.next(f), FrameParser::Status::kBad);
}

TEST(Svc, OversizedLengthRejectedBeforeBuffering) {
  // Hand-build a header claiming a payload far beyond kMaxPayload; the
  // parser must classify it from the 13 header bytes alone.
  std::vector<unsigned char> bytes(9);
  std::memcpy(bytes.data(), &kFrameMagic, 4);
  bytes[4] = std::uint8_t(MsgType::kSubmit);
  const std::uint32_t huge = std::uint32_t(kMaxPayload) + 1;
  std::memcpy(bytes.data() + 5, &huge, 4);
  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(p.next(f), FrameParser::Status::kBad);
}

TEST(Svc, PartialFrameNeedsMoreUntilComplete) {
  const auto bytes = encode_frame(MsgType::kWatch, "job=7\n");
  FrameParser p;
  Frame f;
  p.feed(bytes.data(), bytes.size() - 1);
  EXPECT_EQ(p.next(f), FrameParser::Status::kNeedMore);
  p.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_EQ(p.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.type, MsgType::kWatch);
}

TEST(Svc, KvRoundTripsAndSorts) {
  KvMap kv;
  kv["runs"] = "3";
  kv["grid"] = "smoke";
  kv["note"] = "two words";
  const std::string text = encode_kv(kv);
  EXPECT_EQ(text, "grid=smoke\nnote=two words\nruns=3\n");
  EXPECT_EQ(parse_kv(text), kv);
}

TEST(Svc, KvNewlinesInValuesAreFlattened) {
  KvMap kv;
  kv["msg"] = "line1\nline2";
  const KvMap back = parse_kv(encode_kv(kv));
  EXPECT_EQ(kv_get(back, "msg"), "line1 line2");
}

TEST(Svc, KvParserSkipsGarbageLinesAndKeepsLastDuplicate) {
  const KvMap kv = parse_kv("no-equals-here\n=empty-key\na=1\na=2\n\n");
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv_get(kv, "a"), "2");
  EXPECT_EQ(kv_get(kv, "missing", "fb"), "fb");
}

TEST(Svc, ErrorPayloadCarriesCodeNameMessageAndRetry) {
  const auto payload =
      encode_error(core::ProtoError::kQueueFull, "queue is full", 12.5);
  const KvMap kv = parse_kv(std::string(payload.begin(), payload.end()));
  EXPECT_EQ(kv_get(kv, "code"),
            std::to_string(int(core::ProtoError::kQueueFull)));
  EXPECT_EQ(kv_get(kv, "name"), "queue-full");
  EXPECT_EQ(kv_get(kv, "message"), "queue is full");
  EXPECT_EQ(kv_get(kv, "retry_after_s"), std::to_string(12.5));

  const auto no_retry = encode_error(core::ProtoError::kBadRequest, "nope");
  const KvMap kv2 = parse_kv(std::string(no_retry.begin(), no_retry.end()));
  EXPECT_EQ(kv2.count("retry_after_s"), 0u);
}

TEST(Svc, FuzzGarbageNeverParsesAsAFrame) {
  // Deterministic xorshift garbage: every stream must classify as kBad or
  // starve (kNeedMore) — never produce a frame, never crash.  Streams that
  // happen to open with the real magic are the interesting half of the
  // space, so force that on odd rounds.
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
      std::memcpy(junk.data(), &kFrameMagic, 4);
    }
    FrameParser p;
    p.feed(junk.data(), junk.size());
    Frame f;
    const FrameParser::Status st = p.next(f);
    EXPECT_NE(st, FrameParser::Status::kFrame) << "round " << round;
  }
}

TEST(Svc, FuzzTruncatedRealFramesNeverCrash) {
  const auto whole = encode_frame(MsgType::kSubmit, "grid=smoke\nruns=3\n");
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    FrameParser p;
    p.feed(whole.data(), cut);
    Frame f;
    EXPECT_EQ(p.next(f), FrameParser::Status::kNeedMore) << "cut " << cut;
  }
}

}  // namespace
}  // namespace cgs::svc
