// Full-testbed runs under the ISSUE's reference impairment: 1% bursty
// (Gilbert-Elliott) loss, 2 ms jitter, and one 3 s downstream outage —
// for every system x competing-TCP combination.  Checks completion,
// same-seed bit-exactness, and post-outage bitrate recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/testbed.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;

constexpr Time kOutageStart = std::chrono::seconds(25);
constexpr Time kOutageStop = std::chrono::seconds(28);

Scenario impaired_scenario(stream::GameSystem system, tcp::CcAlgo algo) {
  Scenario sc;
  sc.system = system;
  sc.tcp_algo = algo;
  sc.capacity = 25_mbps;
  sc.queue_bdp_mult = 2.0;
  sc.duration = 45_sec;
  sc.tcp_start = 5_sec;
  sc.tcp_stop = 15_sec;
  sc.seed = 7;
  // ~1% stationary loss in bursts of mean length 4.
  sc.impair_down.gilbert_elliott = net::GilbertElliott{
      .p_good_bad = 0.0025, .p_bad_good = 0.25, .good_loss = 0.0,
      .bad_loss = 1.0};
  sc.impair_down.jitter = 2_ms;
  sc.impair_down.outages.push_back(
      {kOutageStart, kOutageStop, net::OutagePolicy::kDrop});
  return sc;
}

struct RunResult {
  RunTrace trace;
  std::uint64_t stalled_windows = 0;
  std::uint64_t dropped_outage = 0;
  std::uint64_t dropped_random = 0;
  std::uint64_t processed_events = 0;
};

RunResult run_impaired(const Scenario& sc) {
  Testbed bed(sc);
  RunResult r;
  r.trace = bed.run();
  r.stalled_windows = bed.game_sender().stalled_windows();
  const net::Impairment* imp = bed.downstream_impairment();
  r.dropped_outage = imp->counters().dropped_outage;
  r.dropped_random = imp->counters().dropped_random;
  r.processed_events = bed.simulator().processed_events();
  return r;
}

using Combo = std::tuple<stream::GameSystem, tcp::CcAlgo>;

class ImpairedPathTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ImpairedPathTest, RunsToCompletionAndRecoversFromOutage) {
  const auto [system, algo] = GetParam();
  const Scenario sc = impaired_scenario(system, algo);
  const RunResult r = run_impaired(sc);  // watchdog armed; a hang would throw

  // The faults actually happened.
  EXPECT_GT(r.dropped_outage, 0u);
  EXPECT_GT(r.dropped_random, 0u);
  // The sender saw blackout feedback windows and froze instead of reacting
  // to their zeroed fields.
  EXPECT_GT(r.stalled_windows, 0u);

  // During the outage nothing reaches the bottleneck: the measured game
  // bitrate collapses.
  const double during =
      r.trace.mean_game_mbps(kOutageStart + 500_ms, kOutageStop);
  // Recovery criterion: within 10 s of the link returning, the stream gets
  // back to within 20% of its pre-outage (solo, post-TCP) mean.
  const double pre = r.trace.mean_game_mbps(20_sec, kOutageStart);
  double post_peak = 0.0;
  const std::vector<double> game = r.trace.game_mbps();
  const std::size_t first = r.trace.bucket_of(kOutageStop);
  const std::size_t last =
      std::min(r.trace.bucket_of(kOutageStop + 10_sec), game.size() - 1);
  for (std::size_t i = first; i <= last; ++i) {
    post_peak = std::max(post_peak, game[i]);
  }
  ASSERT_GT(pre, 1.0) << "stream never established before the outage";
  EXPECT_LT(during, pre * 0.25);
  EXPECT_GT(post_peak, pre * 0.8)
      << "pre-outage " << pre << " Mb/s, recovered to only " << post_peak
      << " Mb/s within 10 s";
}

TEST_P(ImpairedPathTest, SameSeedIsBitIdentical) {
  const auto [system, algo] = GetParam();
  const Scenario sc = impaired_scenario(system, algo);
  const RunResult a = run_impaired(sc);
  const RunResult b = run_impaired(sc);
  EXPECT_EQ(a.trace.game_mbps(), b.trace.game_mbps());
  EXPECT_EQ(a.trace.tcp_mbps(), b.trace.tcp_mbps());
  EXPECT_EQ(a.stalled_windows, b.stalled_windows);
  EXPECT_EQ(a.dropped_outage, b.dropped_outage);
  EXPECT_EQ(a.dropped_random, b.dropped_random);
  EXPECT_EQ(a.processed_events, b.processed_events);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ImpairedPathTest,
    ::testing::Combine(::testing::Values(stream::GameSystem::kStadia,
                                         stream::GameSystem::kGeForce,
                                         stream::GameSystem::kLuna),
                       ::testing::Values(tcp::CcAlgo::kCubic,
                                         tcp::CcAlgo::kBbr)),
    [](const auto& info) {
      return std::string(stream::to_string(std::get<0>(info.param))) + "_" +
             std::string(tcp::to_string(std::get<1>(info.param)));
    });

TEST(ImpairedPath, HoldOutageReleasesBurstWithoutBreakingTheRun) {
  Scenario sc = impaired_scenario(stream::GameSystem::kStadia,
                                  tcp::CcAlgo::kCubic);
  sc.impair_down.outages.clear();
  sc.impair_down.outages.push_back(
      {kOutageStart, kOutageStop, net::OutagePolicy::kHold});
  Testbed bed(sc);
  const RunTrace trace = bed.run();
  const auto& c = bed.downstream_impairment()->counters();
  EXPECT_GT(c.held, 0u);
  EXPECT_EQ(c.held, c.released);
  // The parked burst floods the queue at release; the run must still
  // complete and the stream re-establish afterwards.
  const double pre = trace.mean_game_mbps(20_sec, kOutageStart);
  const double post = trace.mean_game_mbps(33_sec, kOutageStop + 10_sec);
  ASSERT_GT(pre, 1.0);
  EXPECT_GT(post, pre * 0.5);
}

TEST(ImpairedPath, UpstreamImpairmentInstantiatesPerFlow) {
  Scenario sc = impaired_scenario(stream::GameSystem::kLuna,
                                  tcp::CcAlgo::kBbr);
  sc.impair_up.loss_rate = 0.01;
  Testbed bed(sc);
  // game feedback + tcp ACKs + ping replies = three reverse paths.
  EXPECT_EQ(bed.upstream_impairments().size(), 3u);
  const RunTrace trace = bed.run();
  std::uint64_t up_drops = 0;
  for (const auto& imp : bed.upstream_impairments()) {
    up_drops += imp->counters().dropped_random;
  }
  EXPECT_GT(up_drops, 0u);
  EXPECT_GT(trace.mean_game_mbps(20_sec, kOutageStart), 1.0);
}

TEST(ImpairedPath, ImpairmentOffMatchesBaselineTopology) {
  // A default (no-op) impairment config must not instantiate any stage.
  Scenario sc;
  sc.tcp_algo.reset();
  sc.duration = 2_sec;
  Testbed bed(sc);
  EXPECT_EQ(bed.downstream_impairment(), nullptr);
  EXPECT_TRUE(bed.upstream_impairments().empty());
}

}  // namespace
}  // namespace cgs::core
