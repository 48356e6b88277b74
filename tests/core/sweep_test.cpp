#include "core/sweep.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/journal.hpp"
#include "core/testbed.hpp"
#include "stream/profiles.hpp"
#include "sweep_test_util.hpp"

namespace cgs::core {
namespace {

std::string tmp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgs_sweep_test_" + name;
  std::remove(path.c_str());
  return path;
}

/// The journal's records in file order (head fields only).
std::vector<JournalEntry> journal_records(const std::string& path) {
  const auto scan = scan_journal(path);
  EXPECT_TRUE(scan.has_value()) << path;
  return scan ? scan->entries : std::vector<JournalEntry>{};
}

TEST(Sweep, RejectsNonPositiveRunsAndInvalidCells) {
  // Both are refused before the journal is opened: a rejected grid leaves
  // no journal file behind.
  const std::string journal = tmp_journal("rejected.jnl");
  SweepOptions opts;
  opts.journal_path = journal;
  opts.runs = 0;
  EXPECT_THROW((void)run_sweep({{"c", quick_scenario()}}, opts),
               std::invalid_argument);
  Scenario bad = quick_scenario();
  bad.capacity = Bandwidth(0);
  opts.runs = 2;
  EXPECT_THROW((void)run_sweep({{"bad", bad}}, opts), std::invalid_argument);
  EXPECT_THROW(
      (void)run_sweep({{"good", quick_scenario()}, {"bad", bad}}, opts),
      std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST(Sweep, SeedsExactlyMatchSerialTestbed) {
  // The engine's (cell, i) job must seed scenario.seed + i — byte-for-byte
  // the traces a serial Testbed loop produces, as the journal records them.
  const Scenario sc = quick_scenario(7);
  const std::string journal = tmp_journal("seeds.jnl");
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  const SweepReport report = run_sweep({{"cell", sc}}, opts).report;
  ASSERT_TRUE(report.failures.empty());
  EXPECT_EQ(report.total, 3);
  EXPECT_EQ(report.succeeded, 3);
  EXPECT_EQ(report.finished, 3);
  EXPECT_FALSE(report.interrupted);
  const std::vector<RunTrace> want = serial_traces(sc, 3);
  const std::vector<JournalEntry> records = journal_records(journal);
  ASSERT_EQ(records.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records[i].run, i);
    EXPECT_EQ(records[i].seed, sc.seed + i);
    EXPECT_EQ(records[i].trace_hash, trace_hash(want[i])) << "run " << i;
  }
  std::remove(journal.c_str());
}

TEST(Sweep, SeedsProduceDistinctButAggregableRuns) {
  // Distinct seeds give distinct traces, and a one-cell run_sweep folds
  // them into a well-formed result.
  const Scenario sc = quick_scenario();
  const std::vector<RunTrace> traces = serial_traces(sc, 3);
  EXPECT_NE(traces[0].game_mbps(), traces[1].game_mbps());
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 3;
  const ConditionResult res = run_sweep({{"c", sc}}, opts).results.at(0);
  EXPECT_EQ(res.runs, 3);
  EXPECT_EQ(res.game.mean.size(), res.game.ci95.size());
  EXPECT_GT(res.steady_mean_mbps, 0.0);
  // The windowed fields hold samples, so the field-for-field equality
  // checks built on quick_scenario never compare zeros.
  EXPECT_GT(res.game_fair_mbps, 0.0);
  EXPECT_GT(res.jain_mean, 0.0);
  ASSERT_FALSE(res.flow_rows.empty());
  EXPECT_GT(res.flow_rows[0].fair_mbps_mean, 0.0);
  expect_results_equal(res, summarize(sc, traces));
}

TEST(Sweep, StreamingMatchesBatchSummarize) {
  // The headline determinism contract: streaming ConditionAccumulator
  // output == batch summarize, field for field, through the whole engine.
  std::vector<SweepCell> cells;
  Scenario a = quick_scenario(11);
  Scenario b = quick_scenario(23);
  b.queue_bdp_mult = 0.5;
  b.tcp_algo = tcp::CcAlgo::kBbr;
  cells.push_back({"a", a});
  cells.push_back({"b", b});

  SweepOptions opts;
  opts.runs = 4;
  opts.threads = 3;
  const auto sweep = run_sweep(cells, opts);
  ASSERT_EQ(sweep.results.size(), 2u);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto batch =
        summarize(cells[c].scenario, serial_traces(cells[c].scenario, 4));
    expect_results_equal(sweep.results[c], batch);
  }
}

TEST(Sweep, AccumulatorMatchesSummarizeIncrementally) {
  const auto traces = serial_traces(quick_scenario(), 3);
  ConditionAccumulator acc(quick_scenario());
  for (const auto& t : traces) acc.add(t);
  EXPECT_EQ(acc.runs(), 3);
  expect_results_equal(acc.finalize(), summarize(quick_scenario(), traces));
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  std::vector<SweepCell> cells;
  for (double q : {0.5, 2.0, 7.0}) {
    Scenario sc = quick_scenario(42);
    sc.queue_bdp_mult = q;
    cells.push_back({"q" + std::to_string(q), sc});
  }
  SweepOptions serial;
  serial.runs = 3;
  serial.threads = 1;
  SweepOptions wide;
  wide.runs = 3;
  wide.threads = 4;
  const auto a = run_sweep(cells, serial);
  const auto b = run_sweep(cells, wide);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t c = 0; c < a.results.size(); ++c) {
    expect_results_equal(a.results[c], b.results[c]);
  }
}

TEST(Sweep, ReportsEveryFailingCellAndSeed) {
  // Cell 1 livelocks on every seed; cell 0 is healthy.  Every failure is
  // named and classified, and each cell's jobs — failures included — reach
  // the journal in seed order.
  Scenario sick = quick_scenario(200);
  sick.watchdog_event_budget = 10;
  std::vector<SweepCell> cells = {{"healthy", quick_scenario(100)},
                                  {"sick", sick}};

  const std::string journal = tmp_journal("failing.jnl");
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  opts.throw_on_failure = false;
  const SweepReport report = run_sweep(cells, opts).report;
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].cell, 1u);
  EXPECT_EQ(report.failures[0].cell_label, "sick");
  EXPECT_EQ(report.failures[0].seed, 200u);
  EXPECT_EQ(report.failures[1].seed, 201u);
  EXPECT_NE(report.failures[0].what.find("watchdog"), std::string::npos);
  EXPECT_EQ(report.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(report.failures[1].cell, 1u);
  EXPECT_EQ(report.finished, 4);
  std::vector<std::uint32_t> runs_of[2];
  for (const JournalEntry& e : journal_records(journal)) {
    ASSERT_LT(e.cell, 2u);
    EXPECT_EQ(e.ok, e.cell == 0) << "cell " << e.cell << " run " << e.run;
    runs_of[e.cell].push_back(e.run);
  }
  EXPECT_EQ(runs_of[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(runs_of[1], (std::vector<std::uint32_t>{0, 1}));
  std::remove(journal.c_str());

  // By default run_sweep surfaces the same failures as one diagnostic.
  opts.journal_path.clear();
  opts.throw_on_failure = true;
  try {
    (void)run_sweep(cells, opts);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 of 4 jobs failed"), std::string::npos) << what;
    EXPECT_NE(what.find("cell 'sick' seed 200"), std::string::npos) << what;
    EXPECT_NE(what.find("cell 'sick' seed 201"), std::string::npos) << what;
  }
}

TEST(Sweep, ProgressCountsFailuresAndReachesTotal) {
  // Mixed success/failure grid: per-delivery snapshots must still count
  // every job and finish at (total, total), strictly increasing.
  Scenario sick = quick_scenario(300);
  sick.watchdog_event_budget = 10;
  std::vector<SweepCell> cells = {{"healthy", quick_scenario(100)},
                                  {"sick", sick}};
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.throw_on_failure = false;
  std::mutex mu;
  std::vector<std::pair<int, int>> calls;
  opts.on_snapshot = [&](const ProgressSnapshot& s) {
    if (s.final) return;
    std::lock_guard lk(mu);
    calls.push_back({s.finished, s.total});
  };
  const SweepReport report = run_sweep(cells, opts).report;
  EXPECT_EQ(report.failures.size(), 3u);
  ASSERT_EQ(calls.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(calls[std::size_t(i)].first, i + 1);
    EXPECT_EQ(calls[std::size_t(i)].second, 6);
  }
}

TEST(Sweep, ProgressExceptionReachesTheCaller) {
  // A throwing on_snapshot stops the pool like a failed journal append and
  // reaches the caller, on the calling thread and on workers.  Every
  // delivery, the interrupted one included, is journaled exactly once, so
  // the journal resumes to the uninterrupted result.
  const std::vector<SweepCell> cells = {{"c", quick_scenario(500)}};
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 1;
  opts.journal_sync = false;
  const SweepResult want = run_sweep(cells, opts);
  for (const int threads : {1, 3}) {
    const std::string journal =
        tmp_journal("progress_t" + std::to_string(threads) + ".jnl");
    opts.threads = threads;
    opts.journal_path = journal;
    opts.on_snapshot = [](const ProgressSnapshot& s) {
      if (s.finished == 2) throw std::runtime_error("reporting broke");
    };
    try {
      (void)run_sweep(cells, opts);
      ADD_FAILURE() << "run_sweep returned normally, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "reporting broke");
    }
    opts.on_snapshot = nullptr;
    const SweepResult resumed = run_sweep(cells, opts);
    EXPECT_GE(resumed.report.skipped, 2) << "threads=" << threads;
    EXPECT_EQ(resumed.report.finished, resumed.report.total);
    EXPECT_EQ(journal_records(journal).size(),
              std::size_t(resumed.report.total))
        << "threads=" << threads;
    expect_results_equal(resumed.results[0], want.results[0]);
    std::remove(journal.c_str());
  }
}

TEST(Sweep, ThrowingControllerFailsUnclassified) {
  // A foreign exception from an always-throwing controller is recorded as
  // kUnclassified, with its message.
  Scenario broken = quick_scenario(700);
  broken.controller_override = []() -> std::unique_ptr<stream::RateController> {
    throw std::runtime_error("always broken");
  };
  SweepOptions opts;
  opts.runs = 1;
  opts.threads = 1;
  opts.throw_on_failure = false;
  const SweepReport report = run_sweep({{"broken", broken}}, opts).report;
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cls, ErrorClass::kUnclassified);
  EXPECT_EQ(report.failures[0].what, "always broken");
}

TEST(Sweep, EveryFailedJobIsKept) {
  // A wholly sick cell: the report keeps all 11 failures, each equal to its
  // journal record, in seed order.
  Scenario sick = quick_scenario(900);
  sick.watchdog_event_budget = 10;
  const std::string journal = tmp_journal("sick_cell.jnl");
  SweepOptions opts;
  opts.runs = 11;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  opts.throw_on_failure = false;
  const SweepReport report = run_sweep({{"sick", sick}}, opts).report;
  const auto scan = read_journal(journal);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(report.failures.size(), 11u);
  ASSERT_EQ(scan->entries.size(), 11u);
  for (std::uint32_t i = 0; i < 11; ++i) {
    const SweepFailure& f = report.failures[i];
    const JournalEntry& e = scan->entries[i];
    EXPECT_FALSE(e.ok);
    EXPECT_EQ(e.run, i);
    EXPECT_EQ(f.cell, e.cell);
    EXPECT_EQ(f.seed, e.seed);
    EXPECT_EQ(f.cls, e.cls);
    EXPECT_EQ(f.what, std::string(e.payload.begin(), e.payload.end()));
  }
  std::remove(journal.c_str());
}

TEST(Sweep, IdleWorkersExitInsteadOfSpinning) {
  // One paper-length run (a few hundred ms) and three instant failures on
  // four workers.  Once the job list is handed out, the three idle workers
  // must return instead of spinning until the slow run is delivered: the
  // process then burns about one core over the sweep, where spinning
  // workers would burn four.
  Scenario slow;
  slow.seed = 1000;
  Scenario sick = quick_scenario(1100);
  sick.watchdog_event_budget = 10;
  const std::vector<SweepCell> cells = {
      {"slow", slow}, {"sick-a", sick}, {"sick-b", sick}, {"sick-c", sick}};
  SweepOptions opts;
  opts.runs = 1;
  opts.threads = 4;
  opts.throw_on_failure = false;
  const auto cpu_seconds = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto s = [](const timeval& tv) {
      return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
  };
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  const SweepReport report = run_sweep(cells, opts).report;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const double cpu = cpu_seconds() - cpu0;
  EXPECT_EQ(report.succeeded, 1);
  EXPECT_EQ(report.failures.size(), 3u);
  EXPECT_LT(cpu, 2.0 * wall) << cpu << " s CPU over " << wall << " s wall";
}

TEST(Sweep, StopFlagDrainsGracefully) {
  std::atomic<bool> stop{false};
  const std::string journal = tmp_journal("drain.jnl");
  SweepOptions opts;
  opts.runs = 4;
  opts.threads = 1;
  opts.stop = &stop;
  opts.journal_path = journal;
  opts.journal_sync = false;
  opts.on_snapshot = [&](const ProgressSnapshot& s) {
    if (s.finished >= 2) stop.store(true);
  };
  const SweepReport report =
      run_sweep({{"c", quick_scenario(950)}}, opts).report;
  EXPECT_TRUE(report.interrupted);
  EXPECT_GE(report.finished, 2);
  EXPECT_LT(report.finished, report.total);
  EXPECT_EQ(report.remaining(), report.total - report.finished);
  // Every delivered job is on disk, and nothing else.
  EXPECT_EQ(journal_records(journal).size(), std::size_t(report.finished));
  std::remove(journal.c_str());

  // A pre-raised flag stops the pool before any job runs.
  stop.store(true);
  opts.journal_path.clear();
  const SweepReport none = run_sweep({{"c", quick_scenario(950)}}, opts).report;
  EXPECT_TRUE(none.interrupted);
  EXPECT_EQ(none.finished, 0);
  EXPECT_EQ(none.remaining(), none.total);
}

/// Caps the size of any file this process writes at `bytes`, with SIGXFSZ
/// ignored so that a write past the cap fails with EFBIG instead of
/// killing the process.  Restores both on destruction.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    rlimit cap = saved_;
    cap.rlim_cur = bytes;
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    setrlimit(RLIMIT_FSIZE, &cap);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;
  ~FileSizeCap() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

TEST(Sweep, JournalWriteErrorReachesTheCaller) {
  // Past a 128-byte cap (the header fits under it, three records do not)
  // a journal append fails.  run_sweep must throw the JournalError naming
  // the journal, for a success's record and for a failure's, on the
  // calling thread and on workers — not end the process or return as if
  // the records were there.
  Scenario sick = quick_scenario(1200);
  sick.watchdog_event_budget = 10;
  const std::vector<SweepCell> cases = {{"healthy", quick_scenario(1300)},
                                        {"sick", sick}};
  struct Outcome {
    const SweepCell* cell = nullptr;
    int threads = 0;
    std::string journal;
    bool journal_error = false;
    std::string what;
  };
  std::vector<Outcome> outcomes;
  SweepOptions opts;
  opts.runs = 3;
  opts.journal_sync = false;
  opts.throw_on_failure = false;
  {
    // Nothing is printed while the cap holds: gtest's own output may be a
    // file too.
    const FileSizeCap cap(128);
    for (const int threads : {1, 3}) {
      for (const SweepCell& cell : cases) {
        Outcome o;
        o.cell = &cell;
        o.threads = threads;
        o.journal = tmp_journal("efbig_" + cell.label + "_t" +
                                std::to_string(threads) + ".jnl");
        opts.threads = threads;
        opts.journal_path = o.journal;
        try {
          (void)run_sweep({cell}, opts);
          o.what = "run_sweep returned normally";
        } catch (const JournalError& e) {
          o.journal_error = true;
          o.what = e.what();
        } catch (const std::exception& e) {
          o.what = e.what();
        }
        outcomes.push_back(std::move(o));
      }
    }
  }
  ASSERT_EQ(outcomes.size(), 4u);
  for (const Outcome& o : outcomes) {
    EXPECT_TRUE(o.journal_error) << o.journal << ": " << o.what;
    EXPECT_NE(o.what.find(o.journal), std::string::npos) << o.what;
    // Nothing follows the torn record, so the journal resumes: the torn
    // tail is truncated and the sweep completes.
    opts.threads = o.threads;
    opts.journal_path = o.journal;
    const SweepReport resumed = run_sweep({*o.cell}, opts).report;
    EXPECT_EQ(resumed.finished, resumed.total) << o.journal;
    std::remove(o.journal.c_str());
  }
}

}  // namespace
}  // namespace cgs::core
