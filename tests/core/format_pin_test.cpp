// Byte-for-byte pins of every persistent format: a RunTrace payload and a
// journal file (header, one ok record, one failed record).  The round-trip
// suites prove a format reads back what it wrote; these prove it still
// writes what the journal's version promises, so any change to the bytes
// comes with a version bump.  The expected bytes are little-endian native
// images, hex-encoded.  Also here: the trace decoder refuses every
// malformed payload with JournalError.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/journal.hpp"

namespace cgs::core {
namespace {

using std::chrono::milliseconds;

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

std::string hex(const std::vector<unsigned char>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

/// A small trace that fills every section of the payload: two flows (from
/// which the two-flow views derive), RTT samples, one link and an active
/// fleet digest.
RunTrace pinned_trace() {
  RunTrace t;
  t.sample_interval = milliseconds(500);
  t.duration = milliseconds(1000);
  FlowTrace game;
  game.id = 1;
  game.name = "game";
  game.kind = FlowKind::kGameStream;
  game.mbps = {24.5, 12.25};
  game.pkts_recv = {0, 2100, 4000};
  game.pkts_lost = {0, 3, 7};
  FlowTrace tcp;
  tcp.id = 2;
  tcp.name = "cubic";
  tcp.kind = FlowKind::kBulkTcp;
  tcp.mbps = {0.5, 12.75};
  tcp.pkts_recv = {0, 40, 1100};
  tcp.pkts_lost = {0, 0, 0};
  t.flows = {game, tcp};
  t.rtt = {{milliseconds(250), milliseconds(17)},
           {milliseconds(750), milliseconds(41)}};
  t.frame_times = {milliseconds(16), milliseconds(33), milliseconds(50)};
  LinkTrace link;
  link.name = "bottleneck";
  link.util_mbps = {25.0, 25.0};
  link.depth_bytes = {0, 31250, 62500};
  link.drops = {0, 5, 9};
  t.links = {link};
  net::FleetResult& fl = t.fleet;
  fl.active = true;
  fl.ticks = 100;
  fl.session_ticks = 5000;
  fl.stall_ticks = 12;
  fl.arrivals = 7;
  fl.departures = 3;
  fl.peak_sessions = 54;
  fl.final_sessions = 52;
  fl.mean_mbps = 4.5;
  fl.p50_mbps = 4.25;
  fl.p95_mbps = 8.0;
  fl.p99_mbps = 9.5;
  fl.stall_rate = 0.0024;
  fl.jain = 0.875;
  fl.links = {{"bottleneck", 180.5, 175.25}};
  return t;
}

const char kTraceHex[] =
    "0065cd1d0000000000ca9a3b0000000002000000010000000000000004000000"
    "67616d6500020000000000000000803840000000000080284003000000000000"
    "00000000003408000000000000a00f0000000000000300000000000000000000"
    "0003000000000000000700000000000000020000000000000005000000637562"
    "69630102000000000000000000e03f0000000000802940030000000000000000"
    "00000028000000000000004c0400000000000003000000000000000000000000"
    "0000000000000000000000000000000200000080b2e60e000000004066030100"
    "0000008017b42c00000000409c710200000000030000000024f4000000000040"
    "8af7010000000080f0fa0200000000010000000a000000626f74746c656e6563"
    "6b02000000000000000000394000000000000039400300000000000000000000"
    "00127a00000000000024f4000000000000030000000000000000000000050000"
    "0000000000090000000000000001640000000000000088130000000000000c00"
    "0000000000000700000000000000030000000000000036000000340000000000"
    "0000000012400000000000001140000000000000204000000000000023406132"
    "55302aa9633f000000000000ec3f010000000a000000626f74746c656e65636b"
    "00000000009066400000000000e86540";

const char kJournalHex[] =
    "4347534a4e4c30310400000078563412cefaedfe020000000400000019000000"
    "677269643d736d6f6b6520736565643d34322072756e733d325ef8773347524e"
    "4c03000000010000002b000000000000000103efcdab896745230104000000de"
    "adbeef1a99331347524e4c01000000000000002a000000000000000005000000"
    "0000000000190000006a6f622065786365656465642069747320646561646c69"
    "6e658f86d136";

TEST(Journal, TracePayloadBytesArePinned) {
  if (!kLittleEndian) GTEST_SKIP() << "pins are little-endian images";
  EXPECT_EQ(hex(serialize_trace(pinned_trace())), kTraceHex);
}

TEST(Journal, FileBytesArePinned) {
  if (!kLittleEndian) GTEST_SKIP() << "pins are little-endian images";
  const std::string path = ::testing::TempDir() + "cgs_format_pin.jnl";
  std::remove(path.c_str());
  JournalMeta meta;
  meta.fingerprint = 0xfeedface12345678ULL;
  meta.runs = 2;
  meta.cells = 4;
  meta.note = "grid=smoke seed=42 runs=2";
  JournalEntry ok;
  ok.cell = 3;
  ok.run = 1;
  ok.seed = 43;
  ok.ok = true;
  ok.trace_hash = 0x0123456789abcdefULL;
  ok.payload = {0xde, 0xad, 0xbe, 0xef};
  JournalEntry failed;
  failed.cell = 1;
  failed.run = 0;
  failed.seed = 42;
  failed.cls = ErrorClass::kTimeout;
  const std::string what = "job exceeded its deadline";
  failed.payload.assign(what.begin(), what.end());
  {
    JournalWriter w = JournalWriter::create(path, meta, /*sync=*/false);
    w.append(ok);
    w.append(failed);
    w.close();
  }
  EXPECT_EQ(hex(file_bytes(path)), kJournalHex);
  std::remove(path.c_str());
}

TEST(Journal, MalformedTracePayloadThrowsJournalError) {
  // Every strict prefix of a payload that fills every section.
  const std::vector<unsigned char> bytes = serialize_trace(pinned_trace());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)deserialize_trace(bytes.data(), n), JournalError)
        << "prefix of " << n << " bytes";
  }
  // A count no payload could hold, where each list is announced: flows
  // (after the two i64 times), links (after the flows, rtt and
  // frame_times, all empty) and fleet link loads (the last field).  Each
  // must be refused before anything is allocated for it.
  RunTrace empty;
  empty.fleet.active = true;
  const std::vector<unsigned char> base = serialize_trace(empty);
  for (const std::size_t at : {std::size_t{16}, std::size_t{28},
                               base.size() - 4}) {
    std::vector<unsigned char> bad = base;
    for (std::size_t i = at; i < at + 4; ++i) {
      ASSERT_EQ(bad[i], 0) << "offset " << at << " is not an empty count";
      bad[i] = 0xFF;
    }
    EXPECT_THROW((void)deserialize_trace(bad.data(), bad.size()),
                 JournalError)
        << "count at offset " << at;
  }
}

}  // namespace
}  // namespace cgs::core
