// Run-journal format tests: header/record round trips, the torn-tail
// truncation contract (a crash mid-append must cost exactly one record),
// corruption detection, and bit-exact RunTrace serialization.
#include "core/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "sweep_test_util.hpp"

namespace cgs::core {
namespace {

/// Unique scratch path under gtest's temp dir; removed up front so reruns
/// start clean.
std::string tmp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgs_journal_test_" + name;
  std::remove(path.c_str());
  return path;
}

JournalMeta test_meta() {
  JournalMeta meta;
  meta.fingerprint = 0xfeedface12345678ULL;
  meta.runs = 3;
  meta.cells = 2;
  meta.note = "grid=smoke seed=42 runs=3";
  return meta;
}

JournalEntry ok_entry() {
  JournalEntry e;
  e.cell = 1;
  e.run = 2;
  e.seed = 44;
  e.ok = true;
  e.cls = ErrorClass::kUnclassified;
  e.trace_hash = 0x0123456789abcdefULL;
  e.payload = {1, 2, 3, 4, 5};
  return e;
}

JournalEntry failed_entry() {
  JournalEntry e;
  e.cell = 0;
  e.run = 0;
  e.seed = 42;
  e.ok = false;
  e.cls = ErrorClass::kWatchdog;
  e.trace_hash = 0;
  const std::string what = "[watchdog] cell 'sick' seed 42: budget";
  e.payload.assign(what.begin(), what.end());
  return e;
}

void append_raw(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  os.write(bytes.data(), std::streamsize(bytes.size()));
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.seekg(std::streamoff(offset));
  char b = 0;
  fs.read(&b, 1);
  b = char(b ^ 0x5a);
  fs.seekp(std::streamoff(offset));
  fs.write(&b, 1);
}

TEST(Journal, HeaderAndRecordsRoundTrip) {
  const std::string path = tmp_journal("roundtrip.jnl");
  {
    JournalWriter w = JournalWriter::create(path, test_meta(), /*sync=*/true);
    w.append(ok_entry());
    w.append(failed_entry());
  }
  const auto scan = read_journal(path);
  ASSERT_TRUE(scan.has_value());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->meta.fingerprint, test_meta().fingerprint);
  EXPECT_EQ(scan->meta.runs, 3u);
  EXPECT_EQ(scan->meta.cells, 2u);
  EXPECT_EQ(scan->meta.note, "grid=smoke seed=42 runs=3");
  ASSERT_EQ(scan->entries.size(), 2u);

  const JournalEntry& a = scan->entries[0];
  EXPECT_EQ(a.cell, 1u);
  EXPECT_EQ(a.run, 2u);
  EXPECT_EQ(a.seed, 44u);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.trace_hash, 0x0123456789abcdefULL);
  EXPECT_EQ(a.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));

  const JournalEntry& b = scan->entries[1];
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(b.cls, ErrorClass::kWatchdog);
  EXPECT_EQ(b.seed, 42u);
  std::remove(path.c_str());
}

TEST(Journal, MissingOrTruncatedHeaderMeansNoJournal) {
  // Absent file and a header too short to validate both report "no
  // journal" (the caller recreates it) rather than throwing.
  EXPECT_FALSE(read_journal(tmp_journal("missing.jnl")).has_value());
  const std::string path = tmp_journal("stub.jnl");
  append_raw(path, {'C', 'G', 'S', 'J'});
  EXPECT_FALSE(read_journal(path).has_value());
  std::remove(path.c_str());
}

TEST(Journal, CorruptHeaderThrows) {
  const std::string path = tmp_journal("badheader.jnl");
  { JournalWriter w = JournalWriter::create(path, test_meta(), true); }
  flip_byte(path, 14);  // inside the fingerprint field -> header CRC fails
  EXPECT_THROW((void)read_journal(path), JournalError);
  std::remove(path.c_str());

  // A journal of an older version is refused, naming that version, not
  // read: the version field is bytes 8-11.
  const std::string old = tmp_journal("v3.jnl");
  { JournalWriter w = JournalWriter::create(old, test_meta(), true); }
  {
    std::fstream fs(old, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(8);
    fs.write("\3\0\0\0", 4);
  }
  try {
    (void)scan_journal(old);
    FAIL() << "a version-3 journal must be refused";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("version 3"), std::string::npos)
        << e.what();
  }
  std::remove(old.c_str());
}

TEST(Journal, TornTailIsTruncatedAndRecoverable) {
  const std::string path = tmp_journal("torn.jnl");
  {
    JournalWriter w = JournalWriter::create(path, test_meta(), true);
    w.append(ok_entry());
  }
  const auto clean = read_journal(path);
  ASSERT_TRUE(clean.has_value());
  const std::uint64_t v1 = clean->valid_bytes;

  // Crash mid-append: a few bytes of a half-written record.
  append_raw(path, {0x47, 0x52, 0x4e, 0x4c, 0x01, 0x00, 0x00});
  const auto torn = read_journal(path);
  ASSERT_TRUE(torn.has_value());
  EXPECT_TRUE(torn->torn_tail);
  EXPECT_EQ(torn->valid_bytes, v1);
  ASSERT_EQ(torn->entries.size(), 1u);  // the complete record survives

  // append_to truncates the torn tail and continues the sequence.
  {
    JournalWriter w = JournalWriter::append_to(path, v1, true);
    w.append(failed_entry());
  }
  const auto healed = read_journal(path);
  ASSERT_TRUE(healed.has_value());
  EXPECT_FALSE(healed->torn_tail);
  ASSERT_EQ(healed->entries.size(), 2u);
  EXPECT_EQ(healed->entries[1].seed, 42u);
  std::remove(path.c_str());
}

TEST(Journal, CorruptLastRecordIsTornButMidFileThrows) {
  const std::string path = tmp_journal("corrupt.jnl");
  std::uint64_t v1 = 0;
  {
    JournalWriter w = JournalWriter::create(path, test_meta(), true);
    w.append(ok_entry());
  }
  v1 = read_journal(path)->valid_bytes;
  {
    JournalWriter w = JournalWriter::append_to(path, v1, true);
    w.append(failed_entry());
  }
  const std::uint64_t v2 = read_journal(path)->valid_bytes;

  // Bit rot in the *last* record: indistinguishable from a torn write, so
  // it is dropped, not fatal.
  flip_byte(path, v2 - 6);
  const auto torn = read_journal(path);
  ASSERT_TRUE(torn.has_value());
  EXPECT_TRUE(torn->torn_tail);
  EXPECT_EQ(torn->entries.size(), 1u);
  flip_byte(path, v2 - 6);  // restore

  // Bit rot *mid-file* (a later record follows) cannot be a torn write —
  // that is data corruption and must refuse, not silently drop.
  flip_byte(path, v1 - 6);
  EXPECT_THROW((void)read_journal(path), JournalError);
  std::remove(path.c_str());
}

TEST(Journal, EveryTruncationPointIsTornOrAbsent) {
  // A crash can stop the file at any byte.  Both views of the walk must
  // agree on what survives: nothing inside the header, then exactly the
  // complete records before the cut, torn whenever the cut splits one.
  const std::string full = tmp_journal("cut_full.jnl");
  {
    JournalWriter w = JournalWriter::create(full, test_meta(), false);
    w.append(ok_entry());
    w.append(failed_entry());
    JournalEntry last = ok_entry();
    last.run = 0;
    last.seed = 42;
    last.payload = {9, 8, 7};
    w.append(last);
    w.close();
  }
  const auto whole = read_journal(full);
  ASSERT_TRUE(whole.has_value());
  ASSERT_EQ(whole->entries.size(), 3u);
  const std::uint64_t header_end = whole->entries[0].offset;
  const std::vector<std::uint64_t> ends = {whole->entries[1].offset,
                                           whole->entries[2].offset,
                                           whole->valid_bytes};
  std::vector<char> bytes;
  {
    std::ifstream is(full, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_EQ(bytes.size(), whole->valid_bytes);

  const std::string cut_path = tmp_journal("cut.jnl");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    {
      std::ofstream os(cut_path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), std::streamsize(cut));
    }
    const auto with = read_journal(cut_path);
    const auto without = scan_journal(cut_path);
    if (cut < header_end) {
      EXPECT_FALSE(with.has_value()) << "cut " << cut;
      EXPECT_FALSE(without.has_value()) << "cut " << cut;
      continue;
    }
    ASSERT_TRUE(with.has_value()) << "cut " << cut;
    ASSERT_TRUE(without.has_value()) << "cut " << cut;
    std::size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= cut) ++complete;
    const std::uint64_t boundary =
        complete == 0 ? header_end : ends[complete - 1];
    for (const JournalScan* scan : {&*with, &*without}) {
      EXPECT_EQ(scan->meta.note, test_meta().note) << "cut " << cut;
      ASSERT_EQ(scan->entries.size(), complete) << "cut " << cut;
      EXPECT_EQ(scan->valid_bytes, boundary) << "cut " << cut;
      EXPECT_EQ(scan->torn_tail, cut != boundary) << "cut " << cut;
    }
    for (std::size_t i = 0; i < complete; ++i) {
      const JournalEntry& want = whole->entries[i];
      for (const JournalEntry* e : {&with->entries[i], &without->entries[i]}) {
        EXPECT_EQ(e->offset, want.offset);
        EXPECT_EQ(e->cell, want.cell);
        EXPECT_EQ(e->run, want.run);
        EXPECT_EQ(e->seed, want.seed);
        EXPECT_EQ(e->ok, want.ok);
        EXPECT_EQ(e->cls, want.cls);
        EXPECT_EQ(e->trace_hash, want.trace_hash);
      }
      EXPECT_EQ(with->entries[i].payload, want.payload);
      EXPECT_TRUE(without->entries[i].payload.empty());
    }
  }
  std::remove(cut_path.c_str());
  std::remove(full.c_str());
}

TEST(Journal, PayloadLoadRechecksTheRecord) {
  const std::string path = tmp_journal("load.jnl");
  {
    JournalWriter w = JournalWriter::create(path, test_meta(), false);
    w.append(ok_entry());
    w.append(failed_entry());
    w.close();
  }
  const auto scan = scan_journal(path);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->entries.size(), 2u);
  JournalPayloads payloads(path);
  const std::span<const unsigned char> first = payloads.load(scan->entries[0]);
  EXPECT_EQ(std::vector<unsigned char>(first.begin(), first.end()),
            ok_entry().payload);
  const std::span<const unsigned char> second = payloads.load(scan->entries[1]);
  EXPECT_EQ(std::vector<unsigned char>(second.begin(), second.end()),
            failed_entry().payload);

  // A record that no longer matches its scan entry is refused, not
  // folded: an intact frame with another head (the entry points at the
  // other record) and a payload byte flipped after the scan.
  JournalEntry moved = scan->entries[1];
  moved.offset = scan->entries[0].offset;
  EXPECT_THROW((void)payloads.load(moved), JournalError);
  flip_byte(path, scan->entries[1].offset - 6);
  EXPECT_THROW((void)payloads.load(scan->entries[0]), JournalError);
  std::remove(path.c_str());
}

TEST(Journal, TraceSerializationIsBitExact) {
  Scenario sc = quick_scenario(77);
  Testbed bed(sc);
  const RunTrace t = bed.run();

  const std::vector<std::uint8_t> bytes = serialize_trace(t);
  const RunTrace rt = deserialize_trace(bytes.data(), bytes.size());

  // Same digest, same re-serialization: the round trip loses nothing.
  EXPECT_EQ(trace_hash(rt), trace_hash(t));
  EXPECT_EQ(serialize_trace(rt), bytes);

  ASSERT_EQ(rt.flows.size(), t.flows.size());
  for (std::size_t i = 0; i < t.flows.size(); ++i) {
    EXPECT_EQ(rt.flows[i].id, t.flows[i].id);
    EXPECT_EQ(rt.flows[i].name, t.flows[i].name);
    EXPECT_EQ(rt.flows[i].kind, t.flows[i].kind);
    EXPECT_EQ(rt.flows[i].mbps, t.flows[i].mbps);
  }
  EXPECT_EQ(rt.game_mbps(), t.game_mbps());
  EXPECT_EQ(rt.tcp_mbps(), t.tcp_mbps());
  EXPECT_EQ(rt.game_pkts_recv(), t.game_pkts_recv());
  EXPECT_EQ(rt.queue_drops(), t.queue_drops());
  EXPECT_EQ(rt.frame_times, t.frame_times);
  EXPECT_EQ(rt.rtt.size(), t.rtt.size());
  EXPECT_EQ(rt.sample_interval, t.sample_interval);
  EXPECT_EQ(rt.duration, t.duration);

  // Truncated payloads never produce a half-parsed trace.
  EXPECT_THROW((void)deserialize_trace(bytes.data(), bytes.size() / 2),
               JournalError);
}

TEST(Journal, FingerprintPinsGridShape) {
  std::vector<SweepCell> cells = {{"a", quick_scenario(1)},
                                  {"b", quick_scenario(2)}};
  const std::uint64_t base = sweep_fingerprint(cells, 3);
  EXPECT_EQ(sweep_fingerprint(cells, 3), base);  // deterministic

  EXPECT_NE(sweep_fingerprint(cells, 4), base);  // runs count matters
  std::vector<SweepCell> renamed = cells;
  renamed[1].label = "b2";
  EXPECT_NE(sweep_fingerprint(renamed, 3), base);  // labels matter
  std::vector<SweepCell> reseeded = cells;
  reseeded[0].scenario.seed = 99;
  EXPECT_NE(sweep_fingerprint(reseeded, 3), base);  // seeds matter
  std::vector<SweepCell> requeued = cells;
  requeued[0].scenario.queue_bdp_mult = 7.0;
  EXPECT_NE(sweep_fingerprint(requeued, 3), base);  // scenario shape matters

  // Impairments matter: their rate and their direction.
  std::vector<SweepCell> lossy = cells;
  lossy[0].scenario.impair_down.loss_rate = 0.01;
  const std::uint64_t lossy_fp = sweep_fingerprint(lossy, 3);
  EXPECT_NE(lossy_fp, base);
  std::vector<SweepCell> lossier = lossy;
  lossier[0].scenario.impair_down.loss_rate = 0.02;
  EXPECT_NE(sweep_fingerprint(lossier, 3), lossy_fp);
  std::vector<SweepCell> lossy_up = cells;
  lossy_up[0].scenario.impair_up.loss_rate = 0.01;
  EXPECT_NE(sweep_fingerprint(lossy_up, 3), base);
  EXPECT_NE(sweep_fingerprint(lossy_up, 3), lossy_fp);

  // Spelling the mix out as the flows it resolves to changes nothing; a
  // flow's game system and upstream impairment do.
  net::ImpairmentConfig one_pct;
  one_pct.loss_rate = 0.01;
  std::vector<SweepCell> mixed = cells;
  mixed[0].scenario.flows = mixed[0].scenario.effective_flows();
  const std::uint64_t mixed_fp = sweep_fingerprint(mixed, 3);
  EXPECT_EQ(mixed_fp, base);
  std::vector<SweepCell> resystemed = mixed;
  resystemed[0].scenario.flows[0].system = stream::GameSystem::kLuna;
  EXPECT_NE(sweep_fingerprint(resystemed, 3), mixed_fp);
  std::vector<SweepCell> flow_lossy = mixed;
  flow_lossy[0].scenario.flows[1].impair_up = one_pct;
  EXPECT_NE(sweep_fingerprint(flow_lossy, 3), mixed_fp);

  // A topology link's impairment parameters matter, not just its presence.
  std::vector<SweepCell> lot = {{"lot", parking_lot_scenario({})}};
  lot[0].scenario.topology.links[1].impair = one_pct;
  const std::uint64_t lot_fp = sweep_fingerprint(lot, 3);
  lot[0].scenario.topology.links[1].impair->loss_rate = 0.02;
  EXPECT_NE(sweep_fingerprint(lot, 3), lot_fp);

  // What the aggregate reads matters too: a topology's scalar capacity is
  // the fairness denominator, and a solo cell's span comes from tcp_start.
  std::vector<SweepCell> recapped = lot;
  recapped[0].scenario.capacity = Bandwidth::mbps(50.0);
  EXPECT_NE(sweep_fingerprint(recapped, 3), sweep_fingerprint(lot, 3));
  std::vector<SweepCell> solo = cells;
  solo[0].scenario.tcp_algo = std::nullopt;
  std::vector<SweepCell> respanned = solo;
  respanned[0].scenario.tcp_start = std::chrono::milliseconds(250);
  EXPECT_NE(sweep_fingerprint(respanned, 3), sweep_fingerprint(solo, 3));
}

TEST(Journal, ActiveFaultInjectionChangesTheFingerprint) {
  std::vector<SweepCell> cells = {{"a", quick_scenario(1)}};
  const std::uint64_t base = sweep_fingerprint(cells, 3);

  std::vector<SweepCell> poisoned = cells;
  poisoned[0].scenario.fault.kind = Scenario::FaultKind::kCrash;
  EXPECT_NE(sweep_fingerprint(poisoned, 3), base)
      << "a poisoned grid must not resume a clean journal";
  std::vector<SweepCell> targeted = poisoned;
  targeted[0].scenario.fault.seed = 2;
  EXPECT_NE(sweep_fingerprint(targeted, 3), sweep_fingerprint(poisoned, 3));
}

TEST(Journal, WriteFailureNamesThePathAndErrno) {
  // /dev/full accepts the open and fails every write with ENOSPC — the
  // exact failure mode of a journal on a filled-up disk.
  if (::std::ifstream("/dev/full").fail()) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  try {
    JournalWriter w =
        JournalWriter::create("/dev/full", test_meta(), /*sync=*/false);
    w.append(ok_entry());
    w.close();
    FAIL() << "writing a journal to /dev/full must throw";
  } catch (const JournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/dev/full"), std::string::npos) << what;
    EXPECT_NE(what.find("errno"), std::string::npos) << what;
    EXPECT_NE(what.find("No space left"), std::string::npos) << what;
  }
}

TEST(Journal, CloseSurfacesDeferredErrorsAndIsIdempotent) {
  const std::string path = tmp_journal("close.jnl");
  JournalWriter w = JournalWriter::create(path, test_meta(), /*sync=*/false);
  w.append(ok_entry());
  EXPECT_NO_THROW(w.close());
  EXPECT_NO_THROW(w.close());  // second close is a no-op
  EXPECT_THROW(w.append(ok_entry()), JournalError);  // closed writer
  const auto scan = read_journal(path);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->entries.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cgs::core
