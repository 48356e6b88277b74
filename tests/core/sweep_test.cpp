#include "core/sweep.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "stream/profiles.hpp"
#include "sweep_test_util.hpp"

namespace cgs::core {
namespace {

TEST(Sweep, RejectsNonPositiveRunsAndInvalidCells) {
  SweepOptions opts;
  opts.runs = 0;
  EXPECT_THROW((void)sweep_jobs({{"c", quick_scenario()}}, opts,
                                [](std::size_t, int, RunTrace&&) {}),
               std::invalid_argument);
  Scenario bad = quick_scenario();
  bad.capacity = Bandwidth(0);
  opts.runs = 2;
  EXPECT_THROW((void)sweep_jobs({{"bad", bad}}, opts,
                                [](std::size_t, int, RunTrace&&) {}),
               std::invalid_argument);
  // run_sweep, a one-cell grid included, refuses the same before any
  // worker spawns.
  EXPECT_THROW((void)run_sweep({{"bad", bad}}, opts), std::invalid_argument);
  opts.runs = 0;
  EXPECT_THROW((void)run_sweep({{"c", quick_scenario()}}, opts),
               std::invalid_argument);
}

TEST(Sweep, SeedsExactlyMatchSerialTestbed) {
  // The engine's (cell, i) job must seed scenario.seed + i — byte-for-byte
  // the traces a serial Testbed loop produces.
  const Scenario sc = quick_scenario(7);
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  std::vector<RunTrace> got(3);
  const SweepReport report =
      sweep_jobs({{"cell", sc}}, opts,
                 [&](std::size_t, int run, RunTrace&& t) {
                   got[std::size_t(run)] = std::move(t);
                 });
  ASSERT_TRUE(report.failures.empty());
  EXPECT_EQ(report.total, 3);
  EXPECT_EQ(report.succeeded, 3);
  EXPECT_EQ(report.finished, 3);
  EXPECT_FALSE(report.interrupted);
  const std::vector<RunTrace> want = serial_traces(sc, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].game_mbps(), want[i].game_mbps()) << "run " << i;
    EXPECT_EQ(got[i].tcp_mbps(), want[i].tcp_mbps()) << "run " << i;
  }
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
  // named and classified, healthy runs still stream through in seed order.
  Scenario sick = quick_scenario(200);
  sick.watchdog_event_budget = 10;
  std::vector<SweepCell> cells = {{"healthy", quick_scenario(100)},
                                  {"sick", sick}};

  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  std::mutex mu;
  std::vector<std::pair<std::size_t, int>> delivered;
  const SweepReport report = sweep_jobs(
      cells, opts, [&](std::size_t cell, int run, RunTrace&&) {
        std::lock_guard lk(mu);
        delivered.push_back({cell, run});
      });
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].cell, 1u);
  EXPECT_EQ(report.failures[0].cell_label, "sick");
  EXPECT_EQ(report.failures[0].seed, 200u);
  EXPECT_EQ(report.failures[1].seed, 201u);
  EXPECT_NE(report.failures[0].what.find("watchdog"), std::string::npos);
  EXPECT_EQ(report.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(report.failures[0].attempts, 1);
  EXPECT_EQ(report.failed(), 2u);
  ASSERT_EQ(report.cell_failures.size(), 2u);
  EXPECT_EQ(report.cell_failures[0], 0u);
  EXPECT_EQ(report.cell_failures[1], 2u);
  EXPECT_EQ(report.finished, 4);
  // Healthy cell delivered both runs, in seed order.
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], (std::pair<std::size_t, int>{0, 0}));
  EXPECT_EQ(delivered[1], (std::pair<std::size_t, int>{0, 1}));

  // run_sweep surfaces the same failures as one diagnostic.
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
  opts.snapshot_interval_ms = 0;
  std::mutex mu;
  std::vector<std::pair<int, int>> calls;
  opts.on_snapshot = [&](const ProgressSnapshot& s) {
    if (s.final) return;
    std::lock_guard lk(mu);
    calls.push_back({s.finished, s.total});
  };
  const SweepReport report = sweep_jobs(cells, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  EXPECT_EQ(report.failures.size(), 3u);
  ASSERT_EQ(calls.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(calls[std::size_t(i)].first, i + 1);
    EXPECT_EQ(calls[std::size_t(i)].second, 6);
  }
}

TEST(Sweep, ProgressExceptionsCountedNotFatal) {
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.snapshot_interval_ms = 0;
  // Throws on each of the 3 per-delivery snapshots; the final one returns.
  opts.on_snapshot = [](const ProgressSnapshot& s) {
    if (!s.final) throw std::runtime_error("reporting broke");
  };
  const SweepReport report = sweep_jobs({{"c", quick_scenario(500)}}, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(report.succeeded, 3);
  EXPECT_EQ(report.progress_errors, 3);
}

TEST(Sweep, RetryBudgetExhaustedKeepsAttemptCount) {
  // An in-process job has no retry budget: a foreign exception from an
  // always-throwing controller (kUnclassified) is recorded after its one
  // attempt, and the report counts no retry.
  Scenario broken = quick_scenario(700);
  broken.controller_override = []() -> std::unique_ptr<stream::RateController> {
    throw std::runtime_error("always broken");
  };
  SweepOptions opts;
  opts.runs = 1;
  opts.threads = 1;
  const SweepReport report = sweep_jobs({{"broken", broken}}, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cls, ErrorClass::kUnclassified);
  EXPECT_EQ(report.failures[0].attempts, 1);
  EXPECT_EQ(report.retries, 0);
}

TEST(Sweep, DeterministicFailuresAreNeverRetried) {
  // A watchdog trip reproduces identically — re-running it wastes the
  // time, so the engine must not.
  Scenario sick = quick_scenario(800);
  sick.watchdog_event_budget = 10;
  SweepOptions opts;
  opts.runs = 1;
  opts.threads = 1;
  const SweepReport report = sweep_jobs({{"sick", sick}}, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(report.failures[0].attempts, 1);
  EXPECT_EQ(report.retries, 0);
}

TEST(Sweep, FailureRecordsCappedPerCell) {
  Scenario sick = quick_scenario(900);
  sick.watchdog_event_budget = 10;
  SweepOptions opts;
  opts.runs = int(kFailureRecordsPerCell) + 3;
  opts.threads = 2;
  int on_failure_calls = 0;
  const SweepReport report = sweep_jobs(
      {{"sick", sick}}, opts, [](std::size_t, int, RunTrace&&) {},
      [&](const SweepFailure&) { ++on_failure_calls; });
  EXPECT_EQ(report.failures.size(), kFailureRecordsPerCell);  // records kept
  EXPECT_EQ(report.failures_suppressed, 3u);  // records dropped
  const auto failed = std::size_t(opts.runs);
  EXPECT_EQ(report.failed(), failed);  // but all failures counted
  ASSERT_EQ(report.cell_failures.size(), 1u);
  EXPECT_EQ(report.cell_failures[0], failed);
  EXPECT_EQ(on_failure_calls, opts.runs);  // the hook sees suppressed ones too
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
  const SweepReport report =
      sweep_jobs(cells, opts, [](std::size_t, int, RunTrace&&) {});
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const double cpu = cpu_seconds() - cpu0;
  EXPECT_EQ(report.succeeded, 1);
  EXPECT_EQ(report.failed(), 3u);
  EXPECT_LT(cpu, 2.0 * wall) << cpu << " s CPU over " << wall << " s wall";
}

TEST(Sweep, StopFlagDrainsGracefully) {
  std::atomic<bool> stop{false};
  SweepOptions opts;
  opts.runs = 4;
  opts.threads = 1;
  opts.stop = &stop;
  opts.snapshot_interval_ms = 0;
  opts.on_snapshot = [&](const ProgressSnapshot& s) {
    if (s.finished >= 2) stop.store(true);
  };
  std::atomic<int> consumed{0};
  const SweepReport report = sweep_jobs({{"c", quick_scenario(950)}}, opts,
                                        [&](std::size_t, int, RunTrace&&) {
                                          ++consumed;
                                        });
  EXPECT_TRUE(report.interrupted);
  EXPECT_GE(report.finished, 2);
  EXPECT_LT(report.finished, report.total);
  EXPECT_EQ(report.remaining(), report.total - report.finished);
  EXPECT_EQ(consumed.load(), report.finished);

  // A pre-raised flag stops the pool before any job runs.
  stop.store(true);
  const SweepReport none = sweep_jobs({{"c", quick_scenario(950)}}, opts,
                                      [](std::size_t, int, RunTrace&&) {});
  EXPECT_TRUE(none.interrupted);
  EXPECT_EQ(none.finished, 0);
  EXPECT_EQ(none.remaining(), none.total);
}

TEST(Sweep, PreloadedRunsDeliverInSeedOrderWithoutReExecution) {
  const Scenario sc = quick_scenario(31);
  // Compute runs 0 and 1 serially — what a journal would have stored —
  // and hand them over through loaders that log each call.
  const std::vector<RunTrace> stored = serial_traces(sc, 2);
  std::mutex mu;
  std::vector<std::string> events;
  std::vector<PreloadedRun> pre;
  for (int i = 0; i < 2; ++i) {
    PreloadedRun p;
    p.cell = 0;
    p.run = i;
    p.load = [&, i] {
      std::lock_guard lk(mu);
      events.push_back("load " + std::to_string(i));
      return stored[std::size_t(i)];
    };
    pre.push_back(std::move(p));
  }
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  const SweepReport report = sweep_jobs(
      {{"cell", sc}}, opts,
      [&](std::size_t, int run, RunTrace&&) {
        std::lock_guard lk(mu);
        events.push_back("consume " + std::to_string(run));
      },
      {}, pre);
  EXPECT_EQ(report.skipped, 2);
  EXPECT_EQ(report.succeeded, 1);  // only run 2 executed fresh
  EXPECT_EQ(report.finished, 3);
  // Each loader runs exactly once, in delivery order, right before its
  // slot is consumed.
  EXPECT_EQ(events, (std::vector<std::string>{"load 0", "consume 0", "load 1",
                                              "consume 1", "consume 2"}));

  // A preloaded failure is re-reported, never re-run.
  PreloadedRun bad;
  bad.cell = 0;
  bad.run = 0;
  bad.failure = SweepFailure{0, "cell", sc.seed, "recorded failure",
                             ErrorClass::kWatchdog};
  const SweepReport rep2 = sweep_jobs(
      {{"cell", sc}}, opts, [](std::size_t, int, RunTrace&&) {}, {}, {bad});
  ASSERT_EQ(rep2.failures.size(), 1u);
  EXPECT_EQ(rep2.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(rep2.skipped, 1);
  EXPECT_EQ(rep2.succeeded, 2);

  // Invalid preload slots are rejected before any worker spawns.
  PreloadedRun oob;
  oob.cell = 5;
  EXPECT_THROW((void)sweep_jobs({{"cell", sc}}, opts,
                                [](std::size_t, int, RunTrace&&) {}, {},
                                {oob}),
               std::invalid_argument);
  EXPECT_THROW((void)sweep_jobs({{"cell", sc}}, opts,
                                [](std::size_t, int, RunTrace&&) {}, {},
                                {pre[0], pre[0]}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cgs::core
