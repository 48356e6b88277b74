// Topology graph layer: canonical shape factories, per-flow multi-hop
// routing, the single-bottleneck contract, and deterministic per-link rate
// schedules.
#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/audit.hpp"
#include "net/queue.hpp"

namespace cgs::net {
namespace {

using namespace cgs::literals;
using namespace std::chrono;

class Recorder final : public PacketSink {
 public:
  void handle_packet(PacketPtr pkt) override { pkts.push_back(std::move(pkt)); }
  std::vector<PacketPtr> pkts;
};

TEST(Topology, FactoriesDescribeCanonicalShapes) {
  const TopologySpec single = TopologySpec::single_bottleneck(25_mbps, 1_ms);
  EXPECT_EQ(single.name, "bottleneck");
  ASSERT_EQ(single.links.size(), 1u);
  EXPECT_EQ(single.links[0].name, "bottleneck");
  ASSERT_EQ(single.default_down.size(), 1u);
  EXPECT_TRUE(single.default_up.empty());  // pure delay-line reverse path

  const TopologySpec lot = TopologySpec::parking_lot(3, 25_mbps, 1_ms);
  EXPECT_EQ(lot.name, "parkinglot3");
  ASSERT_EQ(lot.links.size(), 3u);
  EXPECT_EQ(lot.links[0].name, "hop0");
  EXPECT_EQ(lot.links[2].name, "hop2");
  // Default downstream path traverses every hop in order.
  ASSERT_EQ(lot.default_down.size(), 3u);
  EXPECT_EQ(lot.default_down[1], "hop1");
  EXPECT_EQ(lot.link_index("hop2"), 2);
  EXPECT_EQ(lot.link_index("nope"), -1);

  const TopologySpec asym = TopologySpec::asymmetric(25_mbps, 5_mbps, 1_ms);
  ASSERT_EQ(asym.links.size(), 2u);
  EXPECT_EQ(asym.default_down, std::vector<std::string>{"down"});
  EXPECT_EQ(asym.default_up, std::vector<std::string>{"up"});
}

TEST(Topology, ResolvedFillsEmptyLinkNames) {
  TopologySpec t;
  t.links.resize(2);
  t.links[1].name = "named";
  const TopologySpec r = t.resolved();
  EXPECT_EQ(r.links[0].name, "link0");
  EXPECT_EQ(r.links[1].name, "named");
}

TEST(Topology, MultiHopDeliveryTraversesEveryLink) {
  sim::Simulator sim;
  PacketFactory f;
  TopologyGraph g(sim, f, TopologySpec::parking_lot(3, 10_mbps, 1_ms), {});
  Recorder client;
  g.register_client(1, &client);

  g.downstream_entry(1).handle_packet(
      f.make(1, TrafficClass::kGameStream, 1000, sim.now(), {}));
  sim.run();

  ASSERT_EQ(client.pkts.size(), 1u);
  // Each hop serializes 1000 B at 10 Mb/s (800 us) then propagates 1 ms.
  EXPECT_EQ(sim.now(), 3 * (microseconds(800) + 1_ms));
  EXPECT_EQ(g.terminal_link(1), 2u);
  EXPECT_EQ(path_delay(g.spec(), 1).down, 3_ms);
}

TEST(Topology, PerFlowPathsPinCrossTrafficToSingleHops) {
  TopologySpec spec = TopologySpec::parking_lot(3, 10_mbps, 1_ms);
  spec.paths.push_back({7, {"hop1"}, {}});

  sim::Simulator sim;
  PacketFactory f;
  TopologyGraph g(sim, f, spec, {});
  Recorder cross;
  g.register_client(7, &cross);

  struct ArrivalCounter final : PacketObserver {
    void on_arrival(const Packet&, Time) override { ++seen; }
    int seen = 0;
  } hop0;
  g.link_at(0).add_observer(&hop0);

  g.downstream_entry(7).handle_packet(
      f.make(7, TrafficClass::kTcpData, 1000, sim.now(), {}));
  sim.run();

  ASSERT_EQ(cross.pkts.size(), 1u);
  EXPECT_EQ(hop0.seen, 0);  // single-hop path never touched hop0
  EXPECT_EQ(sim.now(), microseconds(800) + 1_ms);
  EXPECT_EQ(g.terminal_link(7), 1u);
}

TEST(Topology, AsymmetricUpstreamContendsOnUpLink) {
  sim::Simulator sim;
  PacketFactory f;
  TopologyGraph g(sim, f, TopologySpec::asymmetric(25_mbps, 1_mbps, 1_ms), {});
  Recorder server;
  PacketSink& up = g.make_upstream(1, 5_ms, &server);

  up.handle_packet(f.make(1, TrafficClass::kTcpAck, 1000, sim.now(), {}));
  sim.run();

  ASSERT_EQ(server.pkts.size(), 1u);
  // Pad 5 ms, then the 1 Mb/s "up" link serializes 1000 B in 8 ms + 1 ms
  // prop — a real bottleneck, not the legacy ideal delay line.
  EXPECT_EQ(sim.now(), 5_ms + 8_ms + 1_ms);
  EXPECT_EQ(path_delay(g.spec(), 1).up, 1_ms);
}

TEST(Topology, BottleneckThrowsOnMultiLinkGraphs) {
  sim::Simulator sim;
  PacketFactory f;
  TopologyGraph g(sim, f, TopologySpec::parking_lot(2, 10_mbps, 1_ms), {});
  try {
    (void)g.bottleneck();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("parkinglot2"), std::string::npos)
        << e.what();
  }
  // A single-link graph's bottleneck is its only link.
  TopologyGraph one(sim, f, TopologySpec::single_bottleneck(10_mbps, 1_ms), {});
  EXPECT_EQ(&one.bottleneck(), &one.link_at(0));
}

// Satellite: a deterministic rate change landing mid-transmission on an
// interior hop must not create or destroy bytes — the invariant auditor
// watches the changing link and every packet still arrives exactly once.
TEST(Topology, RateScheduleConservesBytesAcrossMidTransmissionChange) {
  TopologySpec spec = TopologySpec::parking_lot(3, 10_mbps, 1_ms);
  // hop1 drops to 1 Mb/s at t=1 ms: the first packet reaches hop1 at
  // 1.8 ms... schedule a change at 2 ms, mid-way through a back-to-back
  // burst draining hop1's queue, then restore at 20 ms.
  spec.links[1].rate_schedule = {{2_ms, 1_mbps}, {20_ms, 10_mbps}};
  spec.links[1].queue_bytes = ByteSize(1'000'000);  // no drops: exact count

  sim::Simulator sim;
  PacketFactory f;
  TopologyGraph g(sim, f, spec, {});
  g.schedule_rate_changes();

  core::SimAuditor::Options ao;
  ao.queue_capacity = ByteSize(1'000'000);
  ao.cell_label = "rate-schedule";
  core::SimAuditor auditor(ao);
  auditor.attach(g.link_at(1));

  Recorder client;
  g.register_client(1, &client);
  constexpr int kPackets = 20;
  for (int i = 0; i < kPackets; ++i) {
    g.downstream_entry(1).handle_packet(
        f.make(1, TrafficClass::kTcpData, 1500, sim.now(), {}));
  }
  sim.run();

  EXPECT_EQ(client.pkts.size(), std::size_t(kPackets));
  EXPECT_NO_THROW(auditor.final_check());
  EXPECT_EQ(auditor.arrived_bytes(), auditor.transmitted_bytes());
  EXPECT_EQ(auditor.dropped_bytes(), ByteSize(0));
  EXPECT_GT(auditor.checks_run(), 0u);
  // The slow window actually bit: 20 x 1500 B at 10 Mb/s would finish in
  // ~3.6 ms/hop; the 1 Mb/s dip stretches the run well past that.
  EXPECT_GT(sim.now(), 10_ms);
}

TEST(Topology, MakeQueueBuildsEachDiscipline) {
  for (QueueKind k :
       {QueueKind::kDropTail, QueueKind::kCoDel, QueueKind::kFqCoDel}) {
    auto q = make_queue(k, 64_KB);
    ASSERT_NE(q, nullptr) << to_string(k);
    EXPECT_EQ(q->byte_length(), ByteSize(0));
  }
  EXPECT_EQ(to_string(QueueKind::kFqCoDel), "fq_codel");
}

}  // namespace
}  // namespace cgs::net
