// Crash-recovery contract: a sweep interrupted at an arbitrary job
// boundary — even with a torn trailing journal record — and then resumed
// must produce ConditionResults bit-identical to an uninterrupted run, at
// any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/journal.hpp"
#include "core/sweep.hpp"
#include "sweep_test_util.hpp"

namespace cgs::core {
namespace {

std::string tmp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgs_resume_test_" + name;
  std::remove(path.c_str());
  return path;
}

/// Two fast cells x 3 runs = 6 jobs; distinct seeds/queues so any
/// cross-cell mixup would show in the aggregates.
std::vector<SweepCell> small_grid() {
  Scenario a = quick_scenario(11);
  Scenario b = quick_scenario(23);
  b.queue_bdp_mult = 0.5;
  b.tcp_algo = tcp::CcAlgo::kBbr;
  return {{"a", a}, {"b", b}};
}

SweepResult reference_result(const std::vector<SweepCell>& cells) {
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  return run_sweep(cells, opts);
}

/// Run a journaled sweep that stops itself once `kill_after` jobs finish —
/// the librarified version of SIGINT-at-a-random-moment.
SweepResult interrupted_sweep(const std::vector<SweepCell>& cells,
                              const std::string& journal, int kill_after) {
  std::atomic<bool> stop{false};
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;  // crash semantics are journal_test's concern
  opts.stop = &stop;
  opts.on_snapshot = [&, kill_after](const ProgressSnapshot& s) {
    if (s.finished >= kill_after) stop.store(true);
  };
  return run_sweep(cells, opts);
}

TEST(Resume, InterruptedAtAnyBoundaryThenResumedIsBitExact) {
  const auto cells = small_grid();
  const SweepResult want = reference_result(cells);

  // Kill points spread across the job list; resume at several widths.
  for (const int kill_after : {1, 2, 4}) {
    for (const int resume_threads : {1, 3}) {
      const std::string journal = tmp_journal(
          "kill" + std::to_string(kill_after) + "_t" +
          std::to_string(resume_threads) + ".jnl");
      const SweepResult partial = interrupted_sweep(cells, journal, kill_after);
      ASSERT_GE(partial.report.finished, kill_after);
      if (partial.report.finished == partial.report.total) {
        // In-flight jobs finished the grid before the flag was seen —
        // nothing left to resume, but the result must still be exact.
        expect_results_equal(partial.results[0], want.results[0]);
        std::remove(journal.c_str());
        continue;
      }
      EXPECT_TRUE(partial.report.interrupted);

      SweepOptions opts;
      opts.runs = 3;
      opts.threads = resume_threads;
      opts.journal_path = journal;
      opts.journal_sync = false;
      const SweepResult resumed = run_sweep(cells, opts);
      EXPECT_FALSE(resumed.report.interrupted);
      EXPECT_EQ(resumed.report.finished, resumed.report.total);
      EXPECT_EQ(resumed.report.skipped, partial.report.finished)
          << "every journaled job must be restored, none re-run";
      ASSERT_EQ(resumed.results.size(), want.results.size());
      for (std::size_t c = 0; c < want.results.size(); ++c) {
        expect_results_equal(resumed.results[c], want.results[c]);
      }
      std::remove(journal.c_str());
    }
  }
}

TEST(Resume, TornTrailingRecordIsDroppedNotFatal) {
  const auto cells = small_grid();
  const SweepResult want = reference_result(cells);
  const std::string journal = tmp_journal("torn.jnl");
  const SweepResult partial = interrupted_sweep(cells, journal, 2);
  ASSERT_TRUE(partial.report.interrupted);

  // Simulate a crash mid-append: garbage where the next record started.
  {
    std::ofstream os(journal, std::ios::binary | std::ios::app);
    const char junk[] = {0x47, 0x52, 0x4e, 0x4c, 0x7f, 0x01};
    os.write(junk, sizeof junk);
  }

  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  const SweepResult resumed = run_sweep(cells, opts);
  EXPECT_EQ(resumed.report.skipped, partial.report.finished);
  for (std::size_t c = 0; c < want.results.size(); ++c) {
    expect_results_equal(resumed.results[c], want.results[c]);
  }
  std::remove(journal.c_str());
}

TEST(Resume, OutOfOrderAndGappedJournalResumesBitExact) {
  // A real run's records appended again by hand: cell a's in reverse seed
  // order, cell b's without run 1, then a second record for cell b's run 0
  // that carries run 2's trace.  Journaled jobs are restored in job order,
  // whatever the file order, so cell a's fold in seed order at once, while
  // cell b's run 2 parks in the reorder buffer until a worker has re-run
  // run 1.  The first record for a slot wins: the duplicate changes
  // nothing.
  const auto cells = small_grid();
  const SweepResult want = reference_result(cells);
  const std::string source = tmp_journal("source.jnl");
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.journal_path = source;
  opts.journal_sync = false;
  (void)run_sweep(cells, opts);
  const auto scan = read_journal(source);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->entries.size(), 6u);
  const auto record = [&](std::uint32_t cell, std::uint32_t run) {
    for (const JournalEntry& e : scan->entries) {
      if (e.cell == cell && e.run == run) return e;
    }
    ADD_FAILURE() << "no record for cell " << cell << " run " << run;
    return JournalEntry{};
  };

  using Slot = std::pair<std::uint32_t, std::uint32_t>;  // (cell, run)
  const std::vector<Slot> order = {{0, 2}, {1, 2}, {0, 1}, {1, 0}, {0, 0}};
  JournalEntry duplicate = record(1, 2);
  duplicate.run = 0;
  duplicate.seed = record(1, 0).seed;

  for (const int threads : {1, 3}) {
    const std::string journal =
        tmp_journal("reordered_t" + std::to_string(threads) + ".jnl");
    {
      JournalWriter w = JournalWriter::create(journal, scan->meta, false);
      for (const auto& [cell, run] : order) w.append(record(cell, run));
      w.append(duplicate);
      w.close();
    }
    SweepOptions resume = opts;
    resume.threads = threads;
    resume.journal_path = journal;
    const SweepResult resumed = run_sweep(cells, resume);
    EXPECT_EQ(resumed.report.skipped, 5) << threads << " threads";
    EXPECT_EQ(resumed.report.succeeded, 1) << "only cell b's run 1 re-runs";
    ASSERT_EQ(resumed.results.size(), want.results.size());
    for (std::size_t c = 0; c < want.results.size(); ++c) {
      expect_results_equal(resumed.results[c], want.results[c]);
    }
    std::remove(journal.c_str());
  }
  std::remove(source.c_str());
}

TEST(Resume, CompletedJournalShortCircuitsTheWholeSweep) {
  const auto cells = small_grid();
  const std::string journal = tmp_journal("full.jnl");
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  const SweepResult first = run_sweep(cells, opts);
  const SweepResult second = run_sweep(cells, opts);
  EXPECT_EQ(second.report.skipped, second.report.total);
  EXPECT_EQ(second.report.succeeded, 0);  // nothing re-ran
  for (std::size_t c = 0; c < first.results.size(); ++c) {
    expect_results_equal(second.results[c], first.results[c]);
  }
  std::remove(journal.c_str());
}

TEST(Resume, MismatchedGridIsRefused) {
  const auto cells = small_grid();
  const std::string journal = tmp_journal("mismatch.jnl");
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  (void)run_sweep(cells, opts);

  // Different run count -> different job list -> refuse.
  SweepOptions more_runs = opts;
  more_runs.runs = 3;
  EXPECT_THROW((void)run_sweep(cells, more_runs), JournalMismatchError);

  // Same shape but a mutated cell scenario -> refuse.
  auto mutated = cells;
  mutated[0].scenario.queue_bdp_mult = 7.0;
  EXPECT_THROW((void)run_sweep(mutated, opts), JournalMismatchError);
  std::remove(journal.c_str());
}

TEST(Resume, JournaledFailuresAreRestoredWithoutReRunning) {
  Scenario sick = quick_scenario(200);
  sick.watchdog_event_budget = 10;
  std::vector<SweepCell> cells = {{"healthy", quick_scenario(100)},
                                  {"sick", sick}};
  const std::string journal = tmp_journal("failures.jnl");
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  opts.throw_on_failure = false;
  const SweepResult first = run_sweep(cells, opts);
  ASSERT_EQ(first.report.failures.size(), 2u);

  const SweepResult second = run_sweep(cells, opts);
  EXPECT_EQ(second.report.succeeded, 0);  // failures not re-executed either
  EXPECT_EQ(second.report.skipped, second.report.total);
  ASSERT_EQ(second.report.failures.size(), 2u);
  EXPECT_EQ(second.report.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(second.report.failures[0].seed, 200u);
  EXPECT_NE(second.report.failures[0].what.find("watchdog"),
            std::string::npos);
  expect_results_equal(second.results[0], first.results[0]);
  std::remove(journal.c_str());
}

TEST(Resume, JournalHashesMatchTheGoldenHasher) {
  // Every ok record's stored hash must equal trace_hash() of its payload —
  // the property tools/replay relies on to verify reproductions.
  const auto cells = small_grid();
  const std::string journal = tmp_journal("hashes.jnl");
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  (void)run_sweep(cells, opts);

  const auto scan = read_journal(journal);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->entries.size(), 4u);
  for (const JournalEntry& e : scan->entries) {
    ASSERT_TRUE(e.ok);
    const RunTrace t = deserialize_trace(e.payload.data(), e.payload.size());
    EXPECT_EQ(trace_hash(t), e.trace_hash);
    EXPECT_EQ(t.flows.empty() ? 0u : 1u, 1u);
  }
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace cgs::core
