// End-to-end TCP behaviour over a real simulated bottleneck.
#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "tcp/bulk_app.hpp"

namespace cgs::tcp {
namespace {

using namespace cgs::literals;

/// The paper's Figure-1 bottleneck (1 ms propagation) with an explicit
/// drop-tail queue size.
net::TopologySpec bottleneck(Bandwidth cap, ByteSize queue) {
  net::TopologySpec spec = net::TopologySpec::single_bottleneck(cap, 1_ms);
  spec.links[0].queue_bytes = queue;
  return spec;
}

struct TcpHarness {
  sim::Simulator sim;
  net::PacketFactory factory;
  net::TopologyGraph graph;
  net::DelayLine access;
  BulkTcpFlow flow;

  TcpHarness(CcAlgo algo, Bandwidth cap, ByteSize queue, Time rtt = 16500_us)
      : graph(sim, factory, bottleneck(cap, queue), {}),
        access(sim, (rtt - 2_ms) / 2, &graph.link_entry(0)),
        flow(sim, factory, 7, algo) {
    graph.register_client(7, &flow.receiver());
    flow.attach(&access, &graph.make_upstream(7, (rtt - 2_ms) / 2 + 1_ms,
                                              &flow.sender()));
  }

  /// Run the flow for `dur`; returns goodput in Mb/s.
  double run_goodput(Time dur) {
    flow.sender().start();
    sim.run_until(dur);
    return rate_of(flow.receiver().bytes_delivered(), dur)
        .megabits_per_sec();
  }
};

class TcpSaturationTest : public ::testing::TestWithParam<CcAlgo> {};

// §3.4: "We verified a solo iperf flow can saturate the link on our testbed
// at all three capacities with a 16.5 ms round-trip time."
TEST_P(TcpSaturationTest, SoloFlowSaturates15) {
  TcpHarness h(GetParam(), 15_mbps, bdp(15_mbps, 16500_us) * 2);
  EXPECT_GT(h.run_goodput(20_sec), 15.0 * 0.85);
}

TEST_P(TcpSaturationTest, SoloFlowSaturates25) {
  TcpHarness h(GetParam(), 25_mbps, bdp(25_mbps, 16500_us) * 2);
  EXPECT_GT(h.run_goodput(20_sec), 25.0 * 0.85);
}

TEST_P(TcpSaturationTest, SoloFlowSaturates35) {
  TcpHarness h(GetParam(), 35_mbps, bdp(35_mbps, 16500_us) * 2);
  EXPECT_GT(h.run_goodput(20_sec), 35.0 * 0.85);
}

TEST_P(TcpSaturationTest, SaturatesEvenShallowQueue) {
  // 0.5x BDP queue: loss-heavy but still most of the link.
  TcpHarness h(GetParam(), 25_mbps, ByteSize(bdp(25_mbps, 16500_us).bytes() / 2));
  EXPECT_GT(h.run_goodput(20_sec), 25.0 * 0.70);
}

TEST_P(TcpSaturationTest, NoForwardProgressWithoutStart) {
  TcpHarness h(GetParam(), 25_mbps, 100_KB);
  h.sim.run_until(1_sec);
  EXPECT_EQ(h.flow.receiver().bytes_delivered().bytes(), 0);
}

TEST_P(TcpSaturationTest, StopDrainsInflight) {
  TcpHarness h(GetParam(), 25_mbps, 100_KB);
  h.flow.sender().start();
  h.sim.run_until(5_sec);
  h.flow.sender().stop();
  h.sim.run_until(10_sec);
  EXPECT_EQ(h.flow.sender().inflight().bytes(), 0);
  EXPECT_FALSE(h.flow.sender().running());
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, TcpSaturationTest,
                         ::testing::Values(CcAlgo::kCubic, CcAlgo::kBbr,
                                           CcAlgo::kReno, CcAlgo::kVegas),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(TcpE2e, CubicFillsQueueToLoss) {
  TcpHarness h(CcAlgo::kCubic, 25_mbps, bdp(25_mbps, 16500_us) * 2);
  h.flow.sender().start();
  h.sim.run_until(30_sec);
  // Loss-based control must have experienced drops.
  EXPECT_GT(h.graph.bottleneck().queue().drops_total(), 0u);
  EXPECT_GT(h.flow.sender().loss_episodes_total(), 0u);
}

TEST(TcpE2e, BbrKeepsQueueShorterThanCubic) {
  // The paper's §4.3 explanation: BBR's 2xBDP inflight cap bounds queueing,
  // Cubic fills whatever the queue offers. With a 7x queue the time-average
  // occupancy under Cubic must exceed that under BBR.
  auto avg_queue = [](CcAlgo algo) {
    TcpHarness h(algo, 25_mbps, bdp(25_mbps, 16500_us) * 7);
    h.flow.sender().start();
    double sum = 0;
    int n = 0;
    sim::PeriodicTimer probe(h.sim, 100_ms, [&] {
      if (h.sim.now() > 5_sec) {
        sum += double(h.graph.bottleneck().queue().byte_length().bytes());
        ++n;
      }
    });
    probe.start();
    h.sim.run_until(30_sec);
    return sum / n;
  };
  const double cubic_q = avg_queue(CcAlgo::kCubic);
  const double bbr_q = avg_queue(CcAlgo::kBbr);
  EXPECT_GT(cubic_q, bbr_q * 1.5);
}

TEST(TcpE2e, RetransmissionsRecoverAllData) {
  // Shallow queue forces losses; cumulative delivery must still be
  // contiguous (receiver only counts in-order bytes).
  TcpHarness h(CcAlgo::kCubic, 10_mbps,
               ByteSize(bdp(10_mbps, 16500_us).bytes() / 2));
  h.flow.sender().start();
  h.sim.run_until(10_sec);
  EXPECT_GT(h.flow.sender().retransmits_total(), 0u);
  // Everything acked was delivered in order.
  EXPECT_GE(h.flow.receiver().bytes_delivered().bytes(),
            h.flow.sender().bytes_acked().bytes() -
                2 * net::kTcpMss);
}

TEST(TcpE2e, RttInflatesWithQueueUnderCubic) {
  TcpHarness h(CcAlgo::kCubic, 25_mbps, bdp(25_mbps, 16500_us) * 7);
  h.flow.sender().start();
  h.sim.run_until(20_sec);
  // srtt should reflect substantial queueing above the 16.5 ms base.
  EXPECT_GT(to_seconds(h.flow.sender().rtt().srtt()), 0.030);
}

TEST(TcpE2e, DeterministicAcrossRuns) {
  auto run_once = [] {
    TcpHarness h(CcAlgo::kCubic, 25_mbps, 50_KB);
    h.flow.sender().start();
    h.sim.run_until(10_sec);
    return std::tuple{h.flow.receiver().bytes_delivered().bytes(),
                      h.flow.sender().retransmits_total(),
                      h.sim.processed_events()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace cgs::tcp
