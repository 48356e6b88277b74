#include "net/link.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"

namespace cgs::net {
namespace {

using namespace cgs::literals;

class SinkRecorder final : public PacketSink {
 public:
  explicit SinkRecorder(sim::Simulator& sim) : sim_(sim) {}
  void handle_packet(PacketPtr pkt) override {
    arrivals.emplace_back(sim_.now(), std::move(pkt));
  }
  std::vector<std::pair<Time, PacketPtr>> arrivals;

 private:
  sim::Simulator& sim_;
};

PacketPtr make_pkt(PacketFactory& f, std::int32_t size, Time now,
                   FlowId flow = 1) {
  return f.make(flow, TrafficClass::kTcpData, size, now, {});
}

/// Counts every tap of the links it observes.
struct TapCounter final : PacketObserver {
  void on_arrival(const Packet&, Time) override { ++arrivals; }
  void on_drop(const Packet&, DropReason, Time) override { ++drops; }
  void on_transmit(const Packet&, Time) override { ++transmits; }
  void on_deliver(const Packet&, Time) override { ++delivers; }
  int arrivals = 0, drops = 0, transmits = 0, delivers = 0;
};

/// Logs every tap as (event, packet uid), in call order.
struct TapLog final : PacketObserver {
  void on_arrival(const Packet& p, Time) override { log('a', p); }
  void on_drop(const Packet& p, DropReason, Time) override { log('x', p); }
  void on_transmit(const Packet& p, Time) override { log('t', p); }
  void on_deliver(const Packet& p, Time) override { log('d', p); }
  void log(char event, const Packet& p) { events.emplace_back(event, p.uid); }
  std::vector<std::pair<char, std::uint64_t>> events;
};

TEST(Link, SerializationPlusPropagation) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  // 1500 B at 12 Mb/s = 1 ms serialisation; +2 ms propagation = 3 ms.
  Link link(sim, "l", 12_mbps, 2_ms, std::make_unique<DropTailQueue>(100_KB),
            &sink);
  link.handle_packet(make_pkt(f, 1500, sim.now()));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, 3_ms);
}

TEST(Link, BackToBackPacketsSpacedBySerialization) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  Link link(sim, "l", 12_mbps, kTimeZero,
            std::make_unique<DropTailQueue>(100_KB), &sink);
  for (int i = 0; i < 3; ++i) link.handle_packet(make_pkt(f, 1500, sim.now()));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first, 1_ms);
  EXPECT_EQ(sink.arrivals[1].first, 2_ms);
  EXPECT_EQ(sink.arrivals[2].first, 3_ms);
}

TEST(Link, PipeliningPropagationDoesNotBlockTransmitter) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  // Large propagation: packets must still leave every 1 ms.
  Link link(sim, "l", 12_mbps, 50_ms, std::make_unique<DropTailQueue>(100_KB),
            &sink);
  link.handle_packet(make_pkt(f, 1500, sim.now()));
  link.handle_packet(make_pkt(f, 1500, sim.now()));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, 51_ms);
  EXPECT_EQ(sink.arrivals[1].first, 52_ms);
}

TEST(Link, DeliveredStats) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  Link link(sim, "l", 12_mbps, kTimeZero,
            std::make_unique<DropTailQueue>(100_KB), &sink);
  link.handle_packet(make_pkt(f, 1500, sim.now()));
  link.handle_packet(make_pkt(f, 500, sim.now()));
  sim.run();
  EXPECT_EQ(link.packets_delivered(), 2u);
  EXPECT_EQ(link.bytes_delivered().bytes(), 2000);
}

TEST(Link, SnifferSeesArrivalTransmitDeliverDrop) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  Link link(sim, "l", 12_mbps, kTimeZero,
            std::make_unique<DropTailQueue>(ByteSize(1500)), &sink);
  TapCounter taps;
  link.add_observer(&taps);

  link.handle_packet(make_pkt(f, 1500, sim.now()));
  link.handle_packet(make_pkt(f, 1500, sim.now()));  // queue full: first is
                                                     // in the queue until
                                                     // transmission starts
  sim.run();
  EXPECT_EQ(taps.arrivals, 2);
  EXPECT_GE(taps.drops, 0);
  EXPECT_EQ(taps.transmits + taps.drops, 2);
  EXPECT_EQ(taps.delivers, taps.transmits);
}

TEST(Link, TwoObserversEachSeeEveryTapExactlyOnce) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  // One packet on the wire, one queued, the other three overflow.
  Link link(sim, "l", Bandwidth::kbps(120), kTimeZero,
            std::make_unique<DropTailQueue>(ByteSize(1500)), &sink);
  TapLog first, second;
  link.add_observer(&first);
  link.add_observer(&second);
  for (int i = 0; i < 5; ++i) link.handle_packet(make_pkt(f, 1500, sim.now()));
  sim.run();

  EXPECT_EQ(first.events, second.events);
  std::map<std::pair<char, std::uint64_t>, int> seen;
  for (const auto& e : first.events) ++seen[e];
  for (const auto& [event, n] : seen) {
    EXPECT_EQ(n, 1) << event.first << " uid " << event.second;
  }
  std::map<char, int> per_event;
  for (const auto& e : first.events) ++per_event[e.first];
  EXPECT_EQ(per_event['a'], 5);
  EXPECT_EQ(per_event['x'], 3);
  EXPECT_EQ(per_event['t'], 2);
  EXPECT_EQ(per_event['d'], 2);
  EXPECT_EQ(link.queue().drops_total(), 3u);
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

TEST(Link, QueueOverflowDropsAreCounted) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  // Tiny queue: 1 packet of headroom while one is being serialised.
  Link link(sim, "l", Bandwidth::kbps(120), kTimeZero,
            std::make_unique<DropTailQueue>(ByteSize(1500)), &sink);
  TapCounter taps;
  link.add_observer(&taps);
  // First goes straight to the transmitter, second queues, rest drop.
  for (int i = 0; i < 5; ++i) link.handle_packet(make_pkt(f, 1500, sim.now()));
  sim.run();
  EXPECT_EQ(taps.drops, 3);
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

TEST(Link, SetRateMidTransmissionNeitherStallsNorDoubleSchedules) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  // 1500 B at 12 Mb/s = 1 ms serialisation.
  Link link(sim, "l", 12_mbps, kTimeZero,
            std::make_unique<DropTailQueue>(100_KB), &sink);
  TapCounter taps;
  link.add_observer(&taps);
  for (int i = 0; i < 3; ++i) link.handle_packet(make_pkt(f, 1500, sim.now()));
  // Drop the rate to 1.2 Mb/s (10 ms per packet) while packet 1 is on the
  // wire: its in-flight serialisation must finish on the old schedule, the
  // queued packets serialise at the new rate, and nothing is transmitted
  // twice or left stranded in the queue.
  sim.schedule_at(500_us, [&] { link.set_rate(Bandwidth::mbps(1.2)); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first, 1_ms);
  EXPECT_EQ(sink.arrivals[1].first, 11_ms);
  EXPECT_EQ(sink.arrivals[2].first, 21_ms);
  EXPECT_EQ(taps.transmits, 3);
  EXPECT_EQ(link.packets_delivered(), 3u);
  EXPECT_EQ(link.queue().packet_count(), 0u);
}

TEST(Link, SetRateWhileIdleAppliesToNextPacket) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  Link link(sim, "l", 12_mbps, kTimeZero,
            std::make_unique<DropTailQueue>(100_KB), &sink);
  link.handle_packet(make_pkt(f, 1500, sim.now()));
  sim.run();  // drain; link idle again
  link.set_rate(24_mbps);
  sim.schedule_at(10_ms, [&] { link.handle_packet(make_pkt(f, 1500, sim.now())); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, 1_ms);
  EXPECT_EQ(sink.arrivals[1].first, 10_ms + 500_us);  // 1500 B at 24 Mb/s
}

TEST(DelayLine, PureDelay) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  DelayLine line(sim, 7_ms, &sink);
  line.handle_packet(make_pkt(f, 1500, sim.now()));
  line.handle_packet(make_pkt(f, 9000, sim.now()));  // size irrelevant
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, 7_ms);
  EXPECT_EQ(sink.arrivals[1].first, 7_ms);
}

TEST(DelayLine, PreservesOrderAcrossTime) {
  sim::Simulator sim;
  PacketFactory f;
  SinkRecorder sink(sim);
  DelayLine line(sim, 5_ms, &sink);
  auto p1 = make_pkt(f, 100, sim.now());
  const auto u1 = p1->uid;
  line.handle_packet(std::move(p1));
  sim.schedule_at(1_ms, [&] { line.handle_packet(make_pkt(f, 100, sim.now())); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].second->uid, u1);
  EXPECT_EQ(sink.arrivals[0].first, 5_ms);
  EXPECT_EQ(sink.arrivals[1].first, 6_ms);
}

}  // namespace
}  // namespace cgs::net
