// Fault-isolated sweep execution.
//
// Forked. — the determinism half of the contract: a sweep whose jobs run
// in fork()ed children must produce results bit-identical to the
// in-process engine at any thread count, journal the identical bytes, and
// resume across modes.
//
// Poison. — the robustness half: a grid with deliberately poisoned
// (cell, seed) jobs (SIGSEGV / unbounded allocation / wall-clock spin)
// must complete, record exactly the poisoned jobs once each with the right
// ErrorClass, leave every healthy cell bit-identical to a clean run, and
// restore those failures from the journal as they were recorded.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/sweep.hpp"
#include "sweep_test_util.hpp"

namespace cgs::core {
namespace {

// fork() + RLIMIT_AS interact badly with sanitizer runtimes (shadow
// mappings count against RLIMIT_AS; TSan's runtime locks are not
// fork-safe in a multithreaded parent) — gate the process-heavy cases.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::string tmp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgs_forked_test_" + name;
  std::remove(path.c_str());
  return path;
}

/// Two fast cells x 3 runs = 6 jobs, same shape as the Resume suite.
std::vector<SweepCell> small_grid() {
  Scenario a = quick_scenario(11);
  Scenario b = quick_scenario(23);
  b.queue_bdp_mult = 0.5;
  b.tcp_algo = tcp::CcAlgo::kBbr;
  return {{"a", a}, {"b", b}};
}

SweepOptions forked_opts(int threads) {
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = threads;
  opts.isolation = Isolation::kForked;
  return opts;
}

TEST(Forked, BitIdenticalToInProcessAtAnyThreadCount) {
  if (kSanitized) GTEST_SKIP() << "fork-per-job under sanitizers";
  const auto cells = small_grid();
  SweepOptions ref_opts;
  ref_opts.runs = 3;
  ref_opts.threads = 1;
  const SweepResult want = run_sweep(cells, ref_opts);

  for (const int threads : {1, 2, 8}) {
    const SweepResult got = run_sweep(cells, forked_opts(threads));
    EXPECT_EQ(got.report.failures.size(), 0u) << "threads=" << threads;
    EXPECT_EQ(got.report.succeeded, got.report.total);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (std::size_t c = 0; c < want.results.size(); ++c) {
      expect_results_equal(got.results[c], want.results[c]);
    }
  }
}

TEST(Forked, JournalsTheIdenticalBytesAsInProcessMode) {
  if (kSanitized) GTEST_SKIP() << "fork-per-job under sanitizers";
  const auto cells = small_grid();
  const std::string jnl_in = tmp_journal("inproc.jnl");
  const std::string jnl_fk = tmp_journal("forked.jnl");

  SweepOptions in_opts;
  in_opts.runs = 3;
  in_opts.threads = 2;
  in_opts.journal_path = jnl_in;
  in_opts.journal_sync = false;
  (void)run_sweep(cells, in_opts);

  SweepOptions fk_opts = forked_opts(2);
  fk_opts.journal_path = jnl_fk;
  fk_opts.journal_sync = false;
  (void)run_sweep(cells, fk_opts);

  const auto scan_in = read_journal(jnl_in);
  const auto scan_fk = read_journal(jnl_fk);
  ASSERT_TRUE(scan_in.has_value());
  ASSERT_TRUE(scan_fk.has_value());
  EXPECT_EQ(scan_in->meta.fingerprint, scan_fk->meta.fingerprint);
  ASSERT_EQ(scan_in->entries.size(), 6u);
  ASSERT_EQ(scan_fk->entries.size(), 6u);

  // Same records (completion order may differ): key by (cell, run) and
  // demand byte-identical payloads and equal golden hashes.
  const auto by_slot = [](const JournalScan& s) {
    std::vector<const JournalEntry*> v(s.entries.size(), nullptr);
    for (const JournalEntry& e : s.entries) {
      v[e.cell * 3 + e.run] = &e;
    }
    return v;
  };
  const auto in_slots = by_slot(*scan_in);
  const auto fk_slots = by_slot(*scan_fk);
  for (std::size_t i = 0; i < in_slots.size(); ++i) {
    ASSERT_NE(in_slots[i], nullptr);
    ASSERT_NE(fk_slots[i], nullptr);
    EXPECT_TRUE(in_slots[i]->ok);
    EXPECT_TRUE(fk_slots[i]->ok);
    EXPECT_EQ(in_slots[i]->trace_hash, fk_slots[i]->trace_hash) << "slot " << i;
    EXPECT_EQ(in_slots[i]->payload, fk_slots[i]->payload) << "slot " << i;
  }

  std::remove(jnl_in.c_str());
  std::remove(jnl_fk.c_str());
}

TEST(Forked, ResumesAnInProcessJournalBitExactly) {
  if (kSanitized) GTEST_SKIP() << "fork-per-job under sanitizers";
  const auto cells = small_grid();
  SweepOptions ref_opts;
  ref_opts.runs = 3;
  ref_opts.threads = 2;
  const SweepResult want = run_sweep(cells, ref_opts);

  // Interrupt an in-process journaled sweep partway...
  const std::string journal = tmp_journal("crossmode.jnl");
  std::atomic<bool> stop{false};
  SweepOptions part_opts = ref_opts;
  part_opts.journal_path = journal;
  part_opts.journal_sync = false;
  part_opts.stop = &stop;
  part_opts.on_snapshot = [&](const ProgressSnapshot& s) {
    if (s.finished >= 2) stop.store(true);
  };
  const SweepResult partial = run_sweep(cells, part_opts);
  if (partial.report.finished == partial.report.total) {
    GTEST_SKIP() << "in-flight jobs drained the grid before the stop landed";
  }

  // ...and finish it under forked isolation: journaled results restore,
  // the rest run in children, the fold is bit-identical.
  SweepOptions fk_opts = forked_opts(2);
  fk_opts.journal_path = journal;
  fk_opts.journal_sync = false;
  const SweepResult resumed = run_sweep(cells, fk_opts);
  EXPECT_EQ(resumed.report.skipped, partial.report.finished);
  EXPECT_EQ(resumed.report.finished, resumed.report.total);
  ASSERT_EQ(resumed.results.size(), want.results.size());
  for (std::size_t c = 0; c < want.results.size(); ++c) {
    expect_results_equal(resumed.results[c], want.results[c]);
  }
  std::remove(journal.c_str());
}

TEST(Poison, CrashCellFailsAndSurvivorsAreBitExact) {
  if (kSanitized) GTEST_SKIP() << "fork-per-job under sanitizers";
  Scenario poison = quick_scenario(500);
  poison.fault.kind = Scenario::FaultKind::kCrash;  // every seed segfaults
  const std::vector<SweepCell> cells = {{"healthy", quick_scenario(11)},
                                        {"poison-crash", poison}};

  SweepOptions clean_opts;
  clean_opts.runs = 2;
  clean_opts.threads = 1;
  const SweepResult clean =
      run_sweep({{"healthy", quick_scenario(11)}}, clean_opts);

  SweepOptions opts = forked_opts(2);
  opts.runs = 2;
  opts.throw_on_failure = false;
  const SweepResult got = run_sweep(cells, opts);

  // The sweep finished; only the poisoned cell's jobs failed, once each.
  EXPECT_FALSE(got.report.interrupted);
  EXPECT_EQ(got.report.finished, got.report.total);
  EXPECT_EQ(got.report.succeeded, 2);
  ASSERT_EQ(got.report.failures.size(), 2u);
  for (const SweepFailure& f : got.report.failures) {
    EXPECT_EQ(f.cell, 1u);
    EXPECT_EQ(f.cls, ErrorClass::kCrash);
    EXPECT_NE(f.what.find("SIGSEGV"), std::string::npos) << f.what;
  }

  // The healthy cell never noticed its neighbors dying.
  expect_results_equal(got.results[0], clean.results[0]);
}

TEST(Poison, SeedTargetedFaultFailsExactlyThatJob) {
  if (kSanitized) GTEST_SKIP() << "fork-per-job under sanitizers";
  Scenario poison = quick_scenario(700);
  poison.fault.kind = Scenario::FaultKind::kCrash;
  poison.fault.seed = 701;  // only run index 1 of this cell
  const std::vector<SweepCell> cells = {{"mostly-fine", poison}};

  SweepOptions opts = forked_opts(2);
  opts.runs = 3;
  opts.throw_on_failure = false;
  const SweepResult got = run_sweep(cells, opts);

  EXPECT_EQ(got.report.succeeded, 2);
  ASSERT_EQ(got.report.failures.size(), 1u);
  EXPECT_EQ(got.report.failures[0].seed, 701u);
  EXPECT_EQ(got.report.failures[0].cls, ErrorClass::kCrash);
}

TEST(Poison, OomFaultUnderAddressSpaceCapIsResource) {
  if (kSanitized) GTEST_SKIP() << "RLIMIT_AS under sanitizers";
  Scenario poison = quick_scenario(900);
  poison.fault.kind = Scenario::FaultKind::kOom;
  const std::vector<SweepCell> cells = {{"poison-oom", poison}};

  SweepOptions opts = forked_opts(1);
  opts.runs = 1;
  opts.limits.address_space_bytes = 512ull << 20;
  opts.limits.wall_seconds = 30;  // backstop only
  opts.throw_on_failure = false;
  const SweepResult got = run_sweep(cells, opts);

  ASSERT_EQ(got.report.failures.size(), 1u);
  EXPECT_EQ(got.report.failures[0].cls, ErrorClass::kResource);
}

TEST(Poison, SpinFaultHitsTheSupervisorDeadlineAsTimeout) {
  if (kSanitized) GTEST_SKIP() << "fork-per-job under sanitizers";
  Scenario poison = quick_scenario(1100);
  poison.fault.kind = Scenario::FaultKind::kSpin;
  const std::vector<SweepCell> cells = {{"poison-spin", poison}};

  SweepOptions opts = forked_opts(1);
  opts.runs = 1;
  opts.limits.wall_seconds = 0.5;
  opts.throw_on_failure = false;
  const SweepResult got = run_sweep(cells, opts);

  ASSERT_EQ(got.report.failures.size(), 1u);
  EXPECT_EQ(got.report.failures[0].cls, ErrorClass::kTimeout);
  EXPECT_NE(got.report.failures[0].what.find("wall-clock"), std::string::npos);
}

/// A restored failure must be the one the run reported, field for field.
void expect_failures_equal(const std::vector<SweepFailure>& got,
                           const std::vector<SweepFailure>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].cell, want[i].cell) << "failure " << i;
    EXPECT_EQ(got[i].cell_label, want[i].cell_label) << "failure " << i;
    EXPECT_EQ(got[i].seed, want[i].seed) << "failure " << i;
    EXPECT_EQ(got[i].cls, want[i].cls) << "failure " << i;
    EXPECT_EQ(got[i].what, want[i].what) << "failure " << i;
  }
}

TEST(Poison, ProcessDeathIsRememberedThroughTheJournal) {
  if (kSanitized) GTEST_SKIP() << "fork-per-job under sanitizers";
  Scenario poison = quick_scenario(1500);
  poison.fault.kind = Scenario::FaultKind::kCrash;
  const std::vector<SweepCell> cells = {{"healthy", quick_scenario(11)},
                                        {"poison-crash", poison}};
  const std::string journal = tmp_journal("process_death.jnl");

  SweepOptions opts = forked_opts(2);
  opts.runs = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  opts.throw_on_failure = false;
  const SweepResult first = run_sweep(cells, opts);
  ASSERT_EQ(first.report.failures.size(), 2u);

  // Resume: every job (the crashes included) restores from the journal; no
  // child is ever forked again for the poisoned jobs.
  const SweepResult second = run_sweep(cells, opts);
  EXPECT_EQ(second.report.skipped, second.report.total);
  EXPECT_EQ(second.report.succeeded, 0);
  expect_failures_equal(second.report.failures, first.report.failures);
  expect_results_equal(second.results[0], first.results[0]);
  std::remove(journal.c_str());
}

TEST(Poison, ChildDyingDuringDrainIsJournaledAndRestored) {
  if (kSanitized) GTEST_SKIP() << "fork-per-job under sanitizers";
  // Two workers take the spin job and the healthy one; the first delivery
  // raises the stop flag while the other child still runs, so the third
  // job is still queued.  The drain delivers and journals the in-flight
  // child whichever way it ends — the spin child dies at its deadline —
  // and the resume restores that failure without forking it again and
  // runs only the queued job.
  Scenario spin = quick_scenario(1700);
  spin.fault.kind = Scenario::FaultKind::kSpin;
  const std::vector<SweepCell> cells = {{"poison-spin", spin},
                                        {"healthy", quick_scenario(11)},
                                        {"queued", quick_scenario(23)}};
  const std::string journal = tmp_journal("drain.jnl");

  std::atomic<bool> stop{false};
  SweepOptions opts = forked_opts(2);
  opts.runs = 1;
  opts.limits.wall_seconds = 0.5;
  opts.journal_path = journal;
  opts.journal_sync = false;
  opts.throw_on_failure = false;
  opts.stop = &stop;
  opts.on_snapshot = [&](const ProgressSnapshot& s) {
    if (s.finished >= 1) stop.store(true);
  };
  const SweepResult first = run_sweep(cells, opts);
  EXPECT_TRUE(first.report.interrupted);
  EXPECT_EQ(first.report.finished, 2);
  ASSERT_EQ(first.report.failures.size(), 1u);
  EXPECT_EQ(first.report.failures[0].cls, ErrorClass::kTimeout);

  stop.store(false);
  opts.on_snapshot = nullptr;
  const SweepResult second = run_sweep(cells, opts);
  EXPECT_FALSE(second.report.interrupted);
  EXPECT_EQ(second.report.skipped, 2);
  EXPECT_EQ(second.report.succeeded, 1);
  expect_failures_equal(second.report.failures, first.report.failures);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace cgs::core
