// Same seed, same scenario => bit-identical traces.  Guards the simulation
// core's determinism contract (ordering by (time, insertion-seq)) across the
// pooled event queue, packet recycling, and timer reschedule-in-place paths.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "core/testbed.hpp"

namespace cgs::core {
namespace {

Scenario short_scenario(std::uint64_t seed, tcp::CcAlgo algo) {
  Scenario s;
  s.capacity = Bandwidth::mbps(25.0);
  s.queue_bdp_mult = 2.0;
  s.tcp_algo = algo;
  s.duration = std::chrono::seconds(30);
  s.tcp_start = std::chrono::seconds(8);
  s.tcp_stop = std::chrono::seconds(22);
  s.seed = seed;
  return s;
}

void expect_identical(const RunTrace& a, const RunTrace& b) {
  EXPECT_EQ(a.game_mbps(), b.game_mbps());
  EXPECT_EQ(a.tcp_mbps(), b.tcp_mbps());
  EXPECT_EQ(a.game_pkts_recv(), b.game_pkts_recv());
  EXPECT_EQ(a.game_pkts_lost(), b.game_pkts_lost());
  EXPECT_EQ(a.queue_drops(), b.queue_drops());
  EXPECT_EQ(a.frame_times, b.frame_times);
  ASSERT_EQ(a.rtt.size(), b.rtt.size());
  for (std::size_t i = 0; i < a.rtt.size(); ++i) {
    EXPECT_EQ(a.rtt[i].at, b.rtt[i].at) << "rtt sample " << i;
    EXPECT_EQ(a.rtt[i].rtt, b.rtt[i].rtt) << "rtt sample " << i;
  }
}

TEST(Determinism, SameSeedSameTraceCubic) {
  RunTrace first = Testbed(short_scenario(7, tcp::CcAlgo::kCubic)).run();
  RunTrace second = Testbed(short_scenario(7, tcp::CcAlgo::kCubic)).run();
  expect_identical(first, second);
}

TEST(Determinism, SameSeedSameTraceBbr) {
  RunTrace first = Testbed(short_scenario(11, tcp::CcAlgo::kBbr)).run();
  RunTrace second = Testbed(short_scenario(11, tcp::CcAlgo::kBbr)).run();
  expect_identical(first, second);
}

TEST(Determinism, DifferentSeedsDiverge) {
  RunTrace first = Testbed(short_scenario(1, tcp::CcAlgo::kCubic)).run();
  RunTrace second = Testbed(short_scenario(2, tcp::CcAlgo::kCubic)).run();
  // The stochastic frame source must actually depend on the seed; identical
  // traces here would mean the seed is ignored and the test above is vacuous.
  EXPECT_NE(first.frame_times, second.frame_times);
}

}  // namespace
}  // namespace cgs::core
