// Full-testbed integration: the paper's schedule end to end (shortened
// scenarios where possible to keep ctest fast).
#include <gtest/gtest.h>

#include <memory>

#include "core/aggregate.hpp"
#include "core/testbed.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;

Scenario quick_scenario() {
  Scenario sc;
  sc.system = stream::GameSystem::kStadia;
  sc.capacity = 25_mbps;
  sc.queue_bdp_mult = 2.0;
  sc.tcp_algo = tcp::CcAlgo::kCubic;
  // Shortened schedule: 30 s warmup, TCP during [30, 60), 30 s recovery.
  sc.duration = 90_sec;
  sc.tcp_start = 30_sec;
  sc.tcp_stop = 60_sec;
  return sc;
}

TEST(Testbed, QueueBytesFollowBdpMultiple) {
  Scenario sc = quick_scenario();
  sc.queue_bdp_mult = 2.0;
  EXPECT_EQ(sc.queue_bytes().bytes(), 2 * 51'562);
  sc.queue_bdp_mult = 0.5;
  EXPECT_EQ(sc.queue_bytes().bytes(), 25'781);
}

TEST(Testbed, QueueNeverSmallerThanTwoPackets) {
  Scenario sc = quick_scenario();
  sc.capacity = Bandwidth::kbps(100);
  sc.queue_bdp_mult = 0.5;
  EXPECT_GE(sc.queue_bytes().bytes(), 2 * 1514);
}

TEST(Testbed, LabelDescribesCondition) {
  Scenario sc = quick_scenario();
  EXPECT_EQ(sc.label(), "Stadia 25Mb/s 2xBDP vs cubic");
  sc.tcp_algo.reset();
  EXPECT_EQ(sc.label(), "Stadia 25Mb/s 2xBDP solo");
  sc.queue_kind = QueueKind::kFqCoDel;
  EXPECT_EQ(sc.label(), "Stadia 25Mb/s 2xBDP solo [fq_codel]");
}

TEST(Testbed, RunProducesFullTrace) {
  Testbed bed(quick_scenario());
  const RunTrace t = bed.run();
  EXPECT_EQ(t.duration, 90_sec);
  EXPECT_EQ(t.game_mbps().size(), 181u);  // 90 s / 0.5 s + 1
  EXPECT_FALSE(t.rtt.empty());
  EXPECT_FALSE(t.frame_times.empty());
}

TEST(Testbed, GameRunsWholeTraceAndTcpOnlyMiddle) {
  Testbed bed(quick_scenario());
  const RunTrace t = bed.run();
  EXPECT_GT(t.mean_game_mbps(5_sec, 30_sec), 3.0);
  EXPECT_GT(t.mean_game_mbps(60_sec, 90_sec), 3.0);
  // No TCP before start or (modulo drain) after stop.
  EXPECT_DOUBLE_EQ(t.mean_tcp_mbps(kTimeZero, 29_sec), 0.0);
  EXPECT_GT(t.mean_tcp_mbps(35_sec, 55_sec), 5.0);
  EXPECT_LT(t.mean_tcp_mbps(65_sec, 90_sec), 0.5);
}

TEST(Testbed, SoloScenarioHasNoTcp) {
  Scenario sc = quick_scenario();
  sc.tcp_algo.reset();
  Testbed bed(sc);
  EXPECT_EQ(bed.tcp_flow(), nullptr);
  const RunTrace t = bed.run();
  EXPECT_DOUBLE_EQ(t.mean_tcp_mbps(kTimeZero, 90_sec), 0.0);
}

TEST(Testbed, PingSeesBaseRttWhenIdle) {
  Scenario sc = quick_scenario();
  sc.tcp_algo.reset();
  sc.capacity = 1_gbps;  // unconstrained: no queueing
  Testbed bed(sc);
  const RunTrace t = bed.run();
  const double rtt = t.mean_rtt_ms(10_sec, 80_sec);
  EXPECT_NEAR(rtt, 16.5, 0.5);
}

TEST(Testbed, CompetingCubicInflatesPingRtt) {
  Scenario sc = quick_scenario();
  sc.queue_bdp_mult = 7.0;
  Testbed bed(sc);
  const RunTrace t = bed.run();
  const double idle = t.mean_rtt_ms(5_sec, 28_sec);
  const double busy = t.mean_rtt_ms(40_sec, 60_sec);
  EXPECT_GT(busy, idle + 20.0);  // bufferbloat visible to the probe
}

TEST(Testbed, TraceWindowHelpers) {
  Testbed bed(quick_scenario());
  const RunTrace t = bed.run();
  EXPECT_GE(t.fps_over(10_sec, 30_sec), 20.0);
  EXPECT_LE(t.fps_over(10_sec, 30_sec), 61.0);
  EXPECT_GE(t.game_loss_in(30_sec, 60_sec), 0.0);
  EXPECT_LE(t.game_loss_in(30_sec, 60_sec), 1.0);
  // A window reaching past the run ends at its last sampled boundary,
  // bucket_of(duration): the boundary entry after it is never sampled.
  const double whole = t.game_loss_in(kTimeZero, 90_sec);
  EXPECT_GT(whole, 0.0);
  EXPECT_EQ(t.game_loss_in(kTimeZero, kTimeInfinite), whole);
  EXPECT_EQ(t.game_loss_in(30_sec, 90_sec + 500_ms),
            t.game_loss_in(30_sec, 90_sec));
}

// A run aborted mid-flight (here by its event-budget watchdog, the sweep
// engine's own failure path) destroys its Testbed with packets still
// queued and in flight.  Every one of them must come home to a pool that
// is still alive, and the pool goes with its last packet (under ASan: no
// use-after-free, no leak).  One queued packet is kept past the Testbed to
// observe its pool afterwards.
void expect_mid_run_destruction_releases_every_packet(util::Arena* arena) {
  Scenario sc = quick_scenario();
  sc.tcp_start = 1_sec;
  sc.watchdog_event_budget = 100'000;
  net::PacketPtr survivor;
  {
    auto bed = arena != nullptr ? std::make_unique<Testbed>(sc, arena)
                                : std::make_unique<Testbed>(sc);
    EXPECT_THROW((void)bed->run(), sim::WatchdogError);
    net::Queue& queue = bed->topology().link_at(0).queue();
    ASSERT_GE(queue.packet_count(), 2u);
    survivor = queue.dequeue(bed->simulator().now());
    ASSERT_NE(survivor, nullptr);
    const net::PacketPool& pool = *survivor.get_deleter().pool;
    // Out of the pool: the survivor, the rest of the queue, and packets
    // in flight in the event queue.
    EXPECT_GT(pool.storage_count() - pool.free_count(),
              queue.packet_count() + 1);
  }
  const net::PacketPool& pool = *survivor.get_deleter().pool;
  EXPECT_EQ(pool.free_count() + 1, pool.storage_count());
  survivor.reset();
}

TEST(Testbed, DestroyedMidRunReleasesEveryPacketIntoLivePool) {
  expect_mid_run_destruction_releases_every_packet(nullptr);
}

TEST(Testbed, ArenaBackedDestroyedMidRunReleasesEveryPacketIntoLivePool) {
  util::Arena arena;
  expect_mid_run_destruction_releases_every_packet(&arena);
}

TEST(Aggregate, SeriesStatsShapes) {
  OnlineSeries runs;
  runs.add(std::vector<double>{1.0, 2.0, 3.0});
  runs.add(std::vector<double>{3.0, 2.0, 1.0});
  runs.add(std::vector<double>{2.0, 2.0, 2.0});
  const SeriesStats s = series_stats(runs);
  ASSERT_EQ(s.mean.size(), 3u);
  EXPECT_DOUBLE_EQ(s.mean[0], 2.0);
  EXPECT_DOUBLE_EQ(s.mean[1], 2.0);
  EXPECT_DOUBLE_EQ(s.mean[2], 2.0);
  EXPECT_DOUBLE_EQ(s.sd[1], 0.0);
  EXPECT_GT(s.sd[0], 0.0);
  EXPECT_GT(s.ci95[0], 0.0);
}

TEST(Aggregate, TruncatesToShortestRun) {
  OnlineSeries runs;
  runs.add(std::vector<double>{1.0, 2.0, 3.0});
  runs.add(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(series_stats(runs).mean.size(), 2u);
}

}  // namespace
}  // namespace cgs::core
