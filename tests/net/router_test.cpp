// Flow demultiplexing and the single-bottleneck graph the testbed wires.
#include <gtest/gtest.h>

#include "net/queue.hpp"
#include "net/topology.hpp"

namespace cgs::net {
namespace {

using namespace cgs::literals;

class Recorder final : public PacketSink {
 public:
  void handle_packet(PacketPtr pkt) override { pkts.push_back(std::move(pkt)); }
  std::vector<PacketPtr> pkts;
};

TEST(FlowDemux, RoutesByFlowId) {
  sim::Simulator sim;
  PacketFactory f;
  FlowDemux demux(sim);
  Recorder a, b;
  demux.register_flow(1, &a);
  demux.register_flow(2, &b);
  demux.handle_packet(f.make(1, TrafficClass::kGameStream, 100, kTimeZero, {}));
  demux.handle_packet(f.make(2, TrafficClass::kTcpData, 100, kTimeZero, {}));
  demux.handle_packet(f.make(1, TrafficClass::kGameStream, 100, kTimeZero, {}));
  EXPECT_EQ(a.pkts.size(), 2u);
  EXPECT_EQ(b.pkts.size(), 1u);
}

TEST(FlowDemux, DropsUnroutable) {
  sim::Simulator sim;
  PacketFactory f;
  FlowDemux demux(sim);
  demux.handle_packet(f.make(9, TrafficClass::kPing, 64, kTimeZero, {}));
  EXPECT_EQ(demux.unroutable_total(), 1u);
  EXPECT_EQ(demux.delivered(9), nullptr);
}

TEST(FlowDemux, ReRegistrationReplacesSink) {
  sim::Simulator sim;
  PacketFactory f;
  FlowDemux demux(sim);
  Recorder a, b;
  demux.register_flow(1, &a);
  demux.register_flow(1, &b);
  demux.handle_packet(f.make(1, TrafficClass::kGameStream, 100, kTimeZero, {}));
  EXPECT_TRUE(a.pkts.empty());
  EXPECT_EQ(b.pkts.size(), 1u);
}

TEST(FlowDemux, SparseLargeIdsRouteAndCountPerFlow) {
  // Explicit flow ids are arbitrary u32s: the table must hash them, not
  // index by them, and keep each flow's counter in its own route.
  sim::Simulator sim;
  PacketFactory f;
  FlowDemux demux(sim);
  Recorder small, large, top;
  constexpr FlowId kSmall = 7;
  constexpr FlowId kLarge = 4'000'000'000u;
  constexpr FlowId kTop = 0xffffffffu;
  demux.register_flow(kSmall, &small);
  demux.register_flow(kLarge, &large);
  demux.register_flow(kTop, &top);

  auto send = [&](FlowId flow, std::int32_t bytes) {
    demux.handle_packet(
        f.make(flow, TrafficClass::kTcpData, bytes, kTimeZero, {}));
  };
  send(kLarge, 1500);
  sim.run_until(Time(std::chrono::milliseconds(3)));
  send(kSmall, 1200);
  send(kLarge, 1000);
  send(kLarge, 40);

  EXPECT_EQ(small.pkts.size(), 1u);
  EXPECT_EQ(large.pkts.size(), 3u);
  EXPECT_TRUE(top.pkts.empty());
  EXPECT_EQ(demux.unroutable_total(), 0u);

  const DeliveryCounter* cs = demux.delivered(kSmall);
  const DeliveryCounter* cl = demux.delivered(kLarge);
  const DeliveryCounter* ct = demux.delivered(kTop);
  ASSERT_NE(cs, nullptr);
  ASSERT_NE(cl, nullptr);
  ASSERT_NE(ct, nullptr);
  EXPECT_EQ(cs->pkts, 1u);
  EXPECT_EQ(cs->bytes, 1200);
  EXPECT_EQ(cl->pkts, 3u);
  EXPECT_EQ(cl->bytes, 2540);
  EXPECT_EQ(ct->pkts, 0u);
  // Deliveries are stamped with the demux's clock: the 1040 bytes at 3 ms
  // are the latest instant, the first 1500 bytes lie before it.
  const Time at = Time(std::chrono::milliseconds(3));
  EXPECT_EQ(cl->bytes_before(at), 1500);
  EXPECT_EQ(cl->bytes_before(at + Time(1)), 2540);
  EXPECT_EQ(demux.delivered(8), nullptr);
}

TEST(FlowDemux, ManyFlowsSurviveTableGrowth) {
  // Enough sparse ids to force several rehashes; routes and counters must
  // carry over intact.
  sim::Simulator sim;
  PacketFactory f;
  FlowDemux demux(sim);
  constexpr int kFlows = 200;
  std::vector<Recorder> sinks(kFlows);
  auto id_of = [](int i) { return FlowId(0x9e3779b9u * std::uint32_t(i + 1)); };
  for (int i = 0; i < kFlows; ++i) {
    demux.register_flow(id_of(i), &sinks[std::size_t(i)]);
    demux.handle_packet(f.make(id_of(i), TrafficClass::kTcpData, 100 + i,
                               kTimeZero, {}));
  }
  for (int i = 0; i < kFlows; ++i) {
    EXPECT_EQ(sinks[std::size_t(i)].pkts.size(), 1u) << i;
    const DeliveryCounter* c = demux.delivered(id_of(i));
    ASSERT_NE(c, nullptr) << i;
    EXPECT_EQ(c->pkts, 1u) << i;
    EXPECT_EQ(c->bytes, 100 + i) << i;
  }
  EXPECT_EQ(demux.unroutable_total(), 0u);
}

// The paper's Figure-1 router: one shared bottleneck link whose egress
// demux hands packets to per-flow clients, and pure-delay reverse paths.

TEST(SingleBottleneck, SharedLinkDeliversToRegisteredClients) {
  sim::Simulator sim;
  PacketFactory f;
  TopologySpec spec = TopologySpec::single_bottleneck(10_mbps, 1_ms);
  spec.links[0].queue_bytes = 100_KB;
  TopologyGraph g(sim, f, spec, {});
  Recorder a, b;
  g.register_client(1, &a);
  g.register_client(2, &b);
  g.link_entry(0).handle_packet(
      f.make(1, TrafficClass::kGameStream, 1000, sim.now(), {}));
  g.link_entry(0).handle_packet(
      f.make(2, TrafficClass::kTcpData, 1000, sim.now(), {}));
  sim.run();
  EXPECT_EQ(a.pkts.size(), 1u);
  EXPECT_EQ(b.pkts.size(), 1u);
  EXPECT_EQ(g.bottleneck().name(), "bottleneck");
  EXPECT_EQ(g.queue_capacity(0), 100_KB);
}

TEST(SingleBottleneck, UpstreamBypassesBottleneck) {
  sim::Simulator sim;
  PacketFactory f;
  // Slow bottleneck, but the upstream path must be pure delay.
  TopologyGraph g(
      sim, f, TopologySpec::single_bottleneck(Bandwidth::kbps(8), 1_ms), {});
  Recorder server;
  PacketSink& up = g.make_upstream(1, 5_ms, &server);
  up.handle_packet(f.make(1, TrafficClass::kTcpAck, 1500, sim.now(), {}));
  sim.run();
  ASSERT_EQ(server.pkts.size(), 1u);
  // Delivered after exactly 5 ms, not after 1.5 s of serialisation.
  EXPECT_EQ(sim.now(), 5_ms);
  EXPECT_EQ(g.bottleneck().bytes_arrived(), ByteSize(0));
}

TEST(SingleBottleneck, SharedQueueCouplesFlows) {
  struct DropCounter final : PacketObserver {
    void on_drop(const Packet&, DropReason, Time) override { ++drops; }
    int drops = 0;
  };
  sim::Simulator sim;
  PacketFactory f;
  TopologySpec spec = TopologySpec::single_bottleneck(10_mbps, kTimeZero);
  spec.links[0].queue_bytes = ByteSize(3000);
  TopologyGraph g(sim, f, spec, {});
  Recorder a, b;
  g.register_client(1, &a);
  g.register_client(2, &b);
  DropCounter counter;
  g.bottleneck().add_observer(&counter);
  // Flow 1 floods the shared queue; flow 2's packet arrives last and drops.
  for (int i = 0; i < 4; ++i) {
    g.link_entry(0).handle_packet(
        f.make(1, TrafficClass::kTcpData, 1500, sim.now(), {}));
  }
  g.link_entry(0).handle_packet(
      f.make(2, TrafficClass::kGameStream, 1500, sim.now(), {}));
  sim.run();
  EXPECT_GT(counter.drops, 0);
  EXPECT_TRUE(b.pkts.empty());
}

}  // namespace
}  // namespace cgs::net
