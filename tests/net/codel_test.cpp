#include "net/codel.hpp"

#include <gtest/gtest.h>

#include <set>

#include "net/link.hpp"

namespace cgs::net {
namespace {

using namespace cgs::literals;

PacketPtr make_pkt(PacketFactory& f, std::int32_t size, FlowId flow = 1) {
  return f.make(flow, TrafficClass::kTcpData, size, kTimeZero, {});
}

TEST(CodelQueue, PassesThroughUnderTarget) {
  PacketFactory f;
  CodelQueue q(CodelParams{});
  for (int i = 0; i < 10; ++i) q.enqueue(make_pkt(f, 1000), 1_ms * i);
  int out = 0;
  // Dequeue promptly: sojourn < target, no drops.
  while (auto p = q.dequeue(20_ms)) ++out;
  EXPECT_EQ(out, 10);
  EXPECT_EQ(q.drops_total(), 0u);
}

TEST(CodelQueue, DropsWhenSojournExceedsTargetForInterval) {
  PacketFactory f;
  CodelQueue q(CodelParams{});
  for (int i = 0; i < 200; ++i) q.enqueue(make_pkt(f, 1000), kTimeZero);
  // Dequeue slowly, with every packet having a huge sojourn time: after the
  // first interval (100 ms) CoDel must start dropping.
  Time t = 200_ms;
  int delivered = 0;
  while (auto p = q.dequeue(t)) {
    ++delivered;
    t += 10_ms;
  }
  EXPECT_GT(q.drops_total(), 0u);
  EXPECT_LT(delivered, 200);
}

TEST(CodelQueue, HardByteLimitEnforced) {
  PacketFactory f;
  CodelParams p;
  p.capacity = ByteSize(2500);
  CodelQueue q(p);
  q.enqueue(make_pkt(f, 1000), kTimeZero);
  q.enqueue(make_pkt(f, 1000), kTimeZero);
  q.enqueue(make_pkt(f, 1000), kTimeZero);  // over the limit
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.drops_total(), 1u);
}

TEST(FqCodelQueue, IsolatesFlows) {
  PacketFactory f;
  FqCodelQueue q(CodelParams{});
  // Flow 1 floods; flow 2 sends two packets.
  for (int i = 0; i < 50; ++i) q.enqueue(make_pkt(f, 1000, 1), kTimeZero);
  q.enqueue(make_pkt(f, 1000, 2), kTimeZero);
  q.enqueue(make_pkt(f, 1000, 2), kTimeZero);

  // Flow 2's packets must surface within the first few dequeues (new-flow
  // priority + DRR), despite flow 1's 50-deep backlog.
  int flow2_seen = 0;
  for (int i = 0; i < 6; ++i) {
    auto p = q.dequeue(1_ms);
    ASSERT_NE(p, nullptr);
    if (p->flow == 2) ++flow2_seen;
  }
  EXPECT_EQ(flow2_seen, 2);
}

TEST(FqCodelQueue, RoundRobinFairDrain) {
  PacketFactory f;
  FqCodelQueue q(CodelParams{});
  for (int i = 0; i < 20; ++i) {
    q.enqueue(make_pkt(f, 1000, 1), kTimeZero);
    q.enqueue(make_pkt(f, 1000, 2), kTimeZero);
  }
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 20; ++i) {
    auto p = q.dequeue(1_ms);
    ASSERT_NE(p, nullptr);
    (p->flow == 1 ? c1 : c2)++;
  }
  EXPECT_NEAR(c1, c2, 2);
}

TEST(FqCodelQueue, AggregateAccounting) {
  PacketFactory f;
  FqCodelQueue q(CodelParams{});
  q.enqueue(make_pkt(f, 1000, 1), kTimeZero);
  q.enqueue(make_pkt(f, 500, 2), kTimeZero);
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.byte_length().bytes(), 1500);
  (void)q.dequeue(1_ms);
  (void)q.dequeue(1_ms);
  EXPECT_EQ(q.packet_count(), 0u);
  EXPECT_EQ(q.byte_length().bytes(), 0);
  EXPECT_EQ(q.dequeue(1_ms), nullptr);
}

TEST(FqCodelQueue, SubQueueAqmDropsReachLinkObserverOnce) {
  // Two flows offer 2.7x a 1 Mb/s link's rate through FQ-CoDel: both
  // sub-queues build a standing queue and CoDel drops at dequeue.  Each
  // drop must reach the link's observer exactly once, and the aggregate
  // occupancy must stay what the sub-queues hold: arrived - transmitted -
  // dropped, in bytes and packets, after every event.
  struct Books final : PacketObserver {
    void on_arrival(const Packet& p, Time) override {
      ++pkts;
      bytes += p.size_bytes;
    }
    void on_drop(const Packet& p, DropReason r, Time) override {
      EXPECT_TRUE(dropped.insert(p.uid).second) << "uid " << p.uid;
      if (r == DropReason::kAqmMark) ++aqm;
      --pkts;
      bytes -= p.size_bytes;
    }
    void on_transmit(const Packet& p, Time) override {
      --pkts;
      bytes -= p.size_bytes;
    }
    std::int64_t pkts = 0, bytes = 0;  // what the queue must hold
    std::set<std::uint64_t> dropped;
    std::uint64_t aqm = 0;
  };
  struct NullSink final : PacketSink {
    void handle_packet(PacketPtr) override {}
  } sink;

  sim::Simulator sim;
  PacketFactory f;
  auto owned = std::make_unique<FqCodelQueue>(CodelParams{});
  const FqCodelQueue& q = *owned;
  Link link(sim, "fq", 1_mbps, kTimeZero, std::move(owned), &sink);
  Books books;
  link.add_observer(&books);
  auto check = [&] {
    EXPECT_EQ(std::int64_t(q.packet_count()), books.pkts);
    EXPECT_EQ(q.byte_length().bytes(), books.bytes);
  };
  for (int i = 0; i < 300; ++i) {
    sim.schedule_at(6_ms * i, [&] {
      check();
      for (FlowId flow : {1u, 2u}) {
        link.handle_packet(f.make(flow, TrafficClass::kTcpData, 1000,
                                  sim.now(), {}));
      }
      check();
    });
  }
  sim.run();
  check();
  EXPECT_GT(books.aqm, 0u);
  EXPECT_EQ(books.aqm, books.dropped.size());  // no overflow: all AQM
  EXPECT_EQ(q.drops_total(), books.dropped.size());
}

}  // namespace
}  // namespace cgs::net
