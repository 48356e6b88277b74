// Boundary exactness of the counter-sampled trace collectors.
//
// Links and their egress demuxes count deliveries; the collectors read
// those counters at every sample boundary k * I.  Deliveries landing
// exactly on a boundary are the hard case: the engine orders same-instant
// events by insertion, so a delivery whose event was scheduled before the
// sampler re-armed (propagation delay >= I) fires before the sample, and
// one scheduled after it fires after.  Either way a goodput/utilisation
// bucket must hold exactly the bytes whose delivery time t has
// bucket_of(t) == b (clamped to the last bucket), while the cumulative
// packet and drop samples hold the counts at the sampler event itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/collectors.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;

constexpr Time kInterval = 100_ms;
constexpr Time kDuration = 1_sec;  // buckets [0, 100 ms) ... [1 s, inf)
constexpr std::size_t kBuckets = 11;
constexpr std::int32_t kPkt = 1000;  // 1 ms on the wire at 8 Mb/s

struct NullSink final : net::PacketSink {
  void handle_packet(net::PacketPtr) override {}
};

/// One 8 Mb/s link into its egress demux, with every delivery and drop
/// recorded through the hop's link observer as ground truth.
struct Hop final : net::PacketObserver {
  struct Seen {
    Time at;
    net::FlowId flow;
  };

  Hop(sim::Simulator& sim, std::string name, Time prop, ByteSize queue,
      std::initializer_list<net::FlowId> flows)
      : egress(sim),
        link(sim, std::move(name), 8_mbps, prop,
             std::make_unique<net::DropTailQueue>(queue), &egress) {
    for (net::FlowId f : flows) egress.register_flow(f, &sink);
    link.add_observer(this);
  }

  void on_deliver(const net::Packet& p, Time t) override {
    delivered.push_back({t, p.flow});
  }
  void on_drop(const net::Packet&, net::DropReason, Time t) override {
    dropped.push_back(t);
  }

  NullSink sink;
  net::FlowDemux egress;
  net::Link link;
  std::vector<Seen> delivered;
  std::vector<Time> dropped;
};

double mbps(std::int64_t bytes) {
  return double(bytes) * 8.0 / to_seconds(kInterval) / 1e6;
}

/// Expected series under the bucket_of rule: every delivery of a flow in
/// `flows` (all flows when empty) lands in bucket min(t / I, last).
std::vector<double> expected_mbps(const Hop& hop,
                                  std::vector<net::FlowId> flows) {
  std::vector<std::int64_t> bytes(kBuckets, 0);
  for (const Hop::Seen& s : hop.delivered) {
    if (!flows.empty() &&
        std::find(flows.begin(), flows.end(), s.flow) == flows.end()) {
      continue;
    }
    bytes[std::min<std::size_t>(std::size_t(s.at / kInterval),
                                kBuckets - 1)] += kPkt;
  }
  std::vector<double> out;
  for (std::int64_t b : bytes) out.push_back(mbps(b));
  return out;
}

/// Deliveries of `flow` counted by the sampler event at k * I: those
/// before it, plus the same-instant ones when the hop's boundary
/// deliveries fire ahead of the sampler.
std::uint64_t count_at(const Hop& hop, net::FlowId flow, std::size_t k,
                       bool boundary_first) {
  const Time boundary = kInterval * std::int64_t(k);
  std::uint64_t n = 0;
  for (const Hop::Seen& s : hop.delivered) {
    if (s.flow != flow) continue;
    if (s.at < boundary || (s.at == boundary && boundary_first)) ++n;
  }
  return n;
}

TEST(Collectors, BoundaryInstantsFollowTheBucketRule) {
  sim::Simulator sim;
  net::PacketFactory factory;
  // "far" (150 ms >= I): a delivery at k*I was scheduled 150 ms earlier,
  // before the sampler re-armed at (k-1)*I, so it fires before the sample.
  // "near" (1 ms): its boundary deliveries are scheduled after the re-arm
  // and fire after the sample.  Flow 4 crosses "far" without ending there.
  Hop far(sim, "far", 150_ms, 100_KB, {1, 3, 4});
  Hop near(sim, "near", 1_ms, ByteSize(kPkt), {2});

  TraceCollectors coll(sim, kDuration, kInterval,
                       {{1, "far", FlowKind::kBulkTcp},
                        {2, "near", FlowKind::kBulkTcp},
                        {3, "far2", FlowKind::kBulkTcp}});
  coll.attach_link(far.link, far.egress, {1, 3});
  coll.attach_link(near.link, near.egress, {2});
  coll.start();

  auto inject = [&](Hop& hop, Time at, net::FlowId flow, int count) {
    sim.schedule_at(at, [&sim, &factory, &hop, flow, count] {
      for (int i = 0; i < count; ++i) {
        hop.link.handle_packet(factory.make(flow, net::TrafficClass::kTcpData,
                                            kPkt, sim.now(), {}));
      }
    });
  };
  // far: 1 ms serialisation + 150 ms propagation.
  for (int k : {2, 4, 6, 8, 10}) inject(far, k * kInterval - 151_ms, 1, 1);
  inject(far, 329_ms, 1, 1);   // delivered 480 ms, mid-bucket
  inject(far, 149_ms, 3, 1);   // 300 ms: boundary, second terminal flow
  inject(far, 620_ms, 3, 1);   // 771 ms
  inject(far, 349_ms, 4, 1);   // 500 ms: boundary, non-terminal flow
  inject(far, 950_ms, 1, 1);   // 1101 ms: past the duration, last bucket
  // near: 1 ms serialisation + 1 ms propagation.
  for (int k : {1, 3, 7, 9}) inject(near, k * kInterval - 2_ms, 2, 1);
  // Three at once into a one-packet queue: one sends, one waits, one drops.
  // This burst was scheduled before the 500 ms sampler re-armed, so its
  // drop and standing packet precede that sample...
  inject(near, 500_ms, 2, 3);
  // ...while this one is scheduled after the 200 ms sampler re-armed, so
  // the 200 ms sample sees neither.
  sim.schedule_at(150_ms, [&] { inject(near, 200_ms, 2, 3); });

  sim.run_until(kDuration + 150_ms);
  const RunTrace t = coll.finalize(nullptr, nullptr);

  // The schedule really produced the boundary cases under test.
  ASSERT_EQ(far.delivered.size(), 10u);
  ASSERT_EQ(near.delivered.size(), 8u);
  ASSERT_EQ(near.dropped, (std::vector<Time>{200_ms, 500_ms}));

  ASSERT_EQ(t.links.size(), 2u);
  EXPECT_EQ(t.links[0].util_mbps, expected_mbps(far, {}));
  EXPECT_EQ(t.links[1].util_mbps, expected_mbps(near, {}));

  ASSERT_EQ(t.flows.size(), 3u);
  EXPECT_EQ(t.flows[0].mbps, expected_mbps(far, {1}));
  EXPECT_EQ(t.flows[1].mbps, expected_mbps(near, {2}));
  EXPECT_EQ(t.flows[2].mbps, expected_mbps(far, {3}));
  // The derived TCP view sums the flows in mix order from +0.0.
  const std::vector<double> tcp = t.tcp_mbps();
  ASSERT_EQ(tcp.size(), kBuckets);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double sum =
        0.0 + t.flows[0].mbps[b] + t.flows[1].mbps[b] + t.flows[2].mbps[b];
    EXPECT_EQ(tcp[b], sum) << "bucket " << b;
  }

  ASSERT_EQ(t.flows[0].pkts_recv.size(), kBuckets + 1);
  for (std::size_t k = 0; k <= kBuckets; ++k) {
    EXPECT_EQ(t.flows[0].pkts_recv[k], count_at(far, 1, k, true)) << k;
    EXPECT_EQ(t.flows[1].pkts_recv[k], count_at(near, 2, k, false)) << k;
    EXPECT_EQ(t.flows[2].pkts_recv[k], count_at(far, 3, k, true)) << k;
  }

  // Drops and depth at the sampler event: the 200 ms burst lands after
  // its sample, the 500 ms burst before.
  const std::vector<std::uint64_t> drops{0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 2};
  EXPECT_EQ(t.links[1].drops, drops);
  EXPECT_EQ(t.links[0].drops, std::vector<std::uint64_t>(kBuckets + 1, 0));
  EXPECT_EQ(t.queue_drops(), drops);
  std::vector<std::uint64_t> near_depth(kBuckets + 1, 0);
  near_depth[5] = kPkt;
  EXPECT_EQ(t.links[1].depth_bytes, near_depth);
}

}  // namespace
}  // namespace cgs::core
