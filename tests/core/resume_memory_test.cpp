// Resume memory bound: a sweep resumed against its own complete journal
// holds one journaled trace at a time, not the journal, and the
// payload-free scan holds one record at a time.  A replacement global
// allocator tracks live heap bytes and their peak, the way
// zero_alloc_test counts allocations.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/sweep.hpp"
#include "sweep_test_util.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* track(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const auto n = std::int64_t(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) continue;
  return p;
}

void untrack(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(std::int64_t(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

void* aligned(std::size_t n, std::align_val_t al) {
  const auto a = std::size_t(al);
  return std::aligned_alloc(a, (n + a - 1) & ~(a - 1));
}

}  // namespace

// Live-byte tracking allocator for this test binary only.  Every overload
// funnels through malloc/free so malloc_usable_size sizes both ends.
void* operator new(std::size_t n) { return track(std::malloc(n ? n : 1)); }
void* operator new(std::size_t n, std::align_val_t al) {
  return track(aligned(n ? n : 1, al));
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { untrack(p); }
void operator delete(void* p, std::size_t) noexcept { untrack(p); }
void operator delete(void* p, std::align_val_t) noexcept { untrack(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  untrack(p);
}
void operator delete[](void* p) noexcept { untrack(p); }
void operator delete[](void* p, std::size_t) noexcept { untrack(p); }
void operator delete[](void* p, std::align_val_t) noexcept { untrack(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  untrack(p);
}

namespace cgs::core {
namespace {

/// Peak live heap while `fn` runs, in bytes above the live heap at entry.
template <class F>
std::int64_t peak_during(F&& fn) {
  const std::int64_t base = g_live.load();
  g_peak.store(base);
  fn();
  return g_peak.load() - base;
}

std::string tmp_journal(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "cgs_resume_memory_test_" + name;
  std::remove(path.c_str());
  return path;
}

TEST(Resume, CompleteJournalResumesInOneTracesMemory) {
  // One cell, many runs: the journal grows with the runs, an uninterrupted
  // sweep's peak does not (each trace is folded and freed).
  constexpr int kRuns = 200;
  const std::vector<SweepCell> cells = {{"c", quick_scenario(61)}};
  const std::string journal = tmp_journal("complete.jnl");
  SweepOptions opts;
  opts.runs = kRuns;
  opts.threads = 1;
  opts.journal_path = journal;
  opts.journal_sync = false;

  SweepResult first;
  const std::int64_t uninterrupted =
      peak_during([&] { first = run_sweep(cells, opts); });
  const auto scan = read_journal(journal);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->entries.size(), std::size_t(kRuns));
  std::int64_t payload = 0;
  for (const JournalEntry& e : scan->entries) {
    payload = std::max(payload, std::int64_t(e.payload.size()));
  }
  const std::int64_t bound = uninterrupted + 2 * payload;
  // The grid is sized so that holding the journal would break the bound.
  ASSERT_GT(std::int64_t(scan->valid_bytes), bound);

  SweepResult resumed;
  const std::int64_t resume =
      peak_during([&] { resumed = run_sweep(cells, opts); });
  EXPECT_EQ(resumed.report.skipped, kRuns);
  EXPECT_EQ(resumed.report.succeeded, 0);
  expect_results_equal(resumed.results[0], first.results[0]);
  EXPECT_LT(resume, bound) << "uninterrupted peak " << uninterrupted
                           << " B, largest payload " << payload
                           << " B, journal " << scan->valid_bytes << " B";
  std::remove(journal.c_str());
}

TEST(Resume, PayloadFreeScanPeakDoesNotGrowWithJournalLength) {
  constexpr std::size_t kPayload = 64 * 1024;
  const auto write = [&](const std::string& path, int records) {
    JournalMeta meta;
    meta.runs = std::uint32_t(records);
    meta.cells = 1;
    JournalWriter w = JournalWriter::create(path, meta, false);
    JournalEntry e;
    e.ok = true;
    e.payload.assign(kPayload, 0xab);
    for (int r = 0; r < records; ++r) {
      e.run = std::uint32_t(r);
      e.seed = std::uint64_t(r);
      w.append(e);
    }
    w.close();
  };
  const std::string short_path = tmp_journal("short.jnl");
  const std::string long_path = tmp_journal("long.jnl");
  write(short_path, 4);
  write(long_path, 64);

  std::size_t entries = 0;
  const std::int64_t short_peak =
      peak_during([&] { entries = scan_journal(short_path)->entries.size(); });
  EXPECT_EQ(entries, 4u);
  const std::int64_t long_peak =
      peak_during([&] { entries = scan_journal(long_path)->entries.size(); });
  EXPECT_EQ(entries, 64u);
  // Sixty more records may only add their small index entries.
  EXPECT_LT(long_peak - short_peak, std::int64_t(kPayload))
      << "4 records: " << short_peak << " B, 64 records: " << long_peak
      << " B";
  // The probe does see payloads: keeping them grows with the journal.
  const std::int64_t read_peak =
      peak_during([&] { entries = read_journal(long_path)->entries.size(); });
  EXPECT_GT(read_peak, std::int64_t(60 * kPayload));
  std::remove(short_path.c_str());
  std::remove(long_path.c_str());
}

}  // namespace
}  // namespace cgs::core
