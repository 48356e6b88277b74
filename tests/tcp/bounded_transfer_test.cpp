// Bounded (HTTP-response-style) transfers on the TCP sender.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
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

struct Harness {
  sim::Simulator sim;
  net::PacketFactory factory;
  net::TopologyGraph graph;
  net::DelayLine access;
  BulkTcpFlow flow;

  explicit Harness(Bandwidth cap = 25_mbps,
                   CcAlgo algo = CcAlgo::kCubic)
      : graph(sim, factory, bottleneck(cap, bdp(cap, Time(16500_us)) * 2), {}),
        access(sim, Time(7250_us), &graph.link_entry(0)),
        flow(sim, factory, 4, algo) {
    graph.register_client(4, &flow.receiver());
    flow.attach(&access,
                &graph.make_upstream(4, Time(8250_us), &flow.sender()));
  }
};

TEST(BoundedTransfer, DeliversExactlyTheRequestedBytes) {
  Harness h;
  bool done = false;
  h.flow.sender().send_bounded(ByteSize(500'000), [&] { done = true; });
  h.sim.run_until(30_sec);
  EXPECT_TRUE(done);
  EXPECT_EQ(h.flow.receiver().bytes_delivered().bytes(), 500'000);
  EXPECT_EQ(h.flow.sender().inflight().bytes(), 0);
}

TEST(BoundedTransfer, CompletionFiresAfterFullAck) {
  Harness h;
  Time done_at = kTimeZero;
  h.flow.sender().send_bounded(ByteSize(100'000), [&] {
    done_at = h.sim.now();
  });
  h.sim.run_until(30_sec);
  ASSERT_GT(done_at, kTimeZero);
  // 100 kB at 25 Mb/s needs >= 32 ms + RTT; completion cannot be instant.
  EXPECT_GT(done_at, 40_ms);
}

TEST(BoundedTransfer, BackToBackTransfers) {
  Harness h;
  int completed = 0;
  std::function<void()> next = [&] {
    ++completed;
    if (completed < 5) {
      h.flow.sender().send_bounded(ByteSize(200'000), next);
    }
  };
  h.flow.sender().send_bounded(ByteSize(200'000), next);
  h.sim.run_until(60_sec);
  EXPECT_EQ(completed, 5);
  EXPECT_EQ(h.flow.receiver().bytes_delivered().bytes(), 5 * 200'000);
}

TEST(BoundedTransfer, SurvivesLossyLink) {
  // Tiny queue forces retransmissions; the transfer must still complete
  // exactly.
  sim::Simulator sim;
  net::PacketFactory factory;
  net::TopologyGraph graph(
      sim, factory, bottleneck(Bandwidth::mbps(10.0), ByteSize(8'000)), {});
  net::DelayLine access(sim, Time(7250_us), &graph.link_entry(0));
  BulkTcpFlow flow(sim, factory, 4, CcAlgo::kCubic);
  graph.register_client(4, &flow.receiver());
  flow.attach(&access, &graph.make_upstream(4, Time(8250_us), &flow.sender()));

  bool done = false;
  flow.sender().send_bounded(ByteSize(2'000'000), [&] { done = true; });
  sim.run_until(120_sec);
  EXPECT_TRUE(done);
  EXPECT_GT(flow.sender().retransmits_total(), 0u);
  EXPECT_EQ(flow.receiver().bytes_delivered().bytes(), 2'000'000);
}

TEST(BoundedTransfer, LastSegmentMayBeShort) {
  Harness h;
  bool done = false;
  // Not a multiple of the MSS (1448).
  h.flow.sender().send_bounded(ByteSize(10'001), [&] { done = true; });
  h.sim.run_until(10_sec);
  EXPECT_TRUE(done);
  EXPECT_EQ(h.flow.receiver().bytes_delivered().bytes(), 10'001);
}

TEST(HarmMetric, Definitions) {
  EXPECT_DOUBLE_EQ(cgs::core::harm_more_is_better(20.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(cgs::core::harm_more_is_better(20.0, 25.0), 0.0);
  EXPECT_DOUBLE_EQ(cgs::core::harm_more_is_better(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(cgs::core::harm_less_is_better(20.0, 40.0), 0.5);
  EXPECT_DOUBLE_EQ(cgs::core::harm_less_is_better(40.0, 40.0), 0.0);
}

}  // namespace
}  // namespace cgs::tcp
