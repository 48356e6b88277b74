#include "apps/dash_video.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"

namespace cgs::apps {
namespace {

using namespace cgs::literals;

/// The paper's Figure-1 bottleneck (1 ms propagation) with a 2x-BDP
/// drop-tail queue.
net::TopologySpec bottleneck(Bandwidth cap) {
  net::TopologySpec spec = net::TopologySpec::single_bottleneck(cap, 1_ms);
  spec.links[0].queue_bytes = bdp(cap, Time(16500_us)) * 2;
  return spec;
}

struct DashHarness {
  sim::Simulator sim;
  net::PacketFactory factory;
  net::TopologyGraph graph;
  net::DelayLine access;
  DashVideoClient client;

  explicit DashHarness(Bandwidth cap, DashConfig cfg = {},
                       tcp::CcAlgo algo = tcp::CcAlgo::kCubic)
      : graph(sim, factory, bottleneck(cap), {}),
        access(sim, Time(7250_us), &graph.link_entry(0)),
        client(sim, factory, 5, algo, cfg) {
    graph.register_client(5, &client.flow().receiver());
    client.attach(&access, &graph.make_upstream(5, Time(8250_us),
                                                &client.flow().sender()));
  }
};

TEST(DashVideo, FetchesChunksAndBuffers) {
  DashHarness h(50_mbps);
  h.client.start();
  h.sim.run_until(30_sec);
  EXPECT_GT(h.client.chunks_fetched(), 3);
  EXPECT_GT(h.client.buffer_level(h.sim.now()), 4_sec);
}

TEST(DashVideo, ClimbsLadderOnFastLink) {
  DashHarness h(50_mbps);
  h.client.start();
  h.sim.run_until(120_sec);
  // Plenty of capacity: should reach the top rung (20 Mb/s ladder, 50 Mb/s
  // link, 0.8 safety).
  EXPECT_EQ(h.client.current_quality(), DashConfig{}.ladder.size() - 1);
  EXPECT_LT(to_seconds(h.client.stall_time(h.sim.now())), 1.0);
}

TEST(DashVideo, StaysLowOnSlowLink) {
  DashHarness h(Bandwidth::mbps(3.0));
  h.client.start();
  h.sim.run_until(120_sec);
  // 3 Mb/s link: it must settle at or below the 2.5 Mb/s rung.
  EXPECT_LE(h.client.current_ladder_rate().megabits_per_sec(), 2.6);
}

TEST(DashVideo, BufferCapsNearTarget) {
  DashConfig cfg;
  cfg.buffer_target = 12_sec;
  DashHarness h(50_mbps, cfg);
  h.client.start();
  h.sim.run_until(120_sec);
  // Buffer never wildly exceeds target + one chunk.
  EXPECT_LE(h.client.buffer_level(h.sim.now()),
            cfg.buffer_target + 2 * cfg.chunk_duration);
  EXPECT_GE(h.client.buffer_level(h.sim.now()), 4_sec);
}

TEST(DashVideo, StallsWhenLinkDies) {
  DashHarness h(Bandwidth::mbps(8.0));
  h.client.start();
  h.sim.run_until(60_sec);
  const Time stalled_before = h.client.stall_time(h.sim.now());
  // Choke the link far below the lowest rung.
  h.graph.bottleneck().set_rate(Bandwidth::kbps(200));
  h.sim.run_until(180_sec);
  EXPECT_GT(h.client.stall_time(h.sim.now()),
            stalled_before + 10_sec);
}

TEST(DashVideo, MeanQualityTracksFetches) {
  DashHarness h(50_mbps);
  h.client.start();
  h.sim.run_until(60_sec);
  EXPECT_GT(h.client.mean_quality().bits_per_sec(), 0);
  EXPECT_LE(h.client.mean_quality().megabits_per_sec(), 20.0);
}

TEST(DashVideo, StopHaltsFetching) {
  DashHarness h(50_mbps);
  h.client.start();
  h.sim.run_until(20_sec);
  h.client.stop();
  const int chunks = h.client.chunks_fetched();
  h.sim.run_until(60_sec);
  EXPECT_LE(h.client.chunks_fetched(), chunks + 1);  // at most the in-flight one
}

}  // namespace
}  // namespace cgs::apps
