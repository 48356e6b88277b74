#include "net/queue.hpp"

#include <gtest/gtest.h>

#include "net/packet.hpp"

namespace cgs::net {
namespace {

using namespace cgs::literals;

PacketPtr make_pkt(PacketFactory& f, std::int32_t size, FlowId flow = 1) {
  return f.make(flow, TrafficClass::kTcpData, size, kTimeZero, {});
}

TEST(DropTailQueue, FifoOrder) {
  PacketFactory f;
  DropTailQueue q(10_KB);
  auto a = make_pkt(f, 100);
  auto b = make_pkt(f, 100);
  const auto ua = a->uid, ub = b->uid;
  q.enqueue(std::move(a), kTimeZero);
  q.enqueue(std::move(b), kTimeZero);
  EXPECT_EQ(q.dequeue(kTimeZero)->uid, ua);
  EXPECT_EQ(q.dequeue(kTimeZero)->uid, ub);
  EXPECT_EQ(q.dequeue(kTimeZero), nullptr);
}

TEST(DropTailQueue, ByteAccounting) {
  PacketFactory f;
  DropTailQueue q(10_KB);
  q.enqueue(make_pkt(f, 1500), kTimeZero);
  q.enqueue(make_pkt(f, 500), kTimeZero);
  EXPECT_EQ(q.byte_length().bytes(), 2000);
  EXPECT_EQ(q.packet_count(), 2u);
  (void)q.dequeue(kTimeZero);
  EXPECT_EQ(q.byte_length().bytes(), 500);
}

TEST(DropTailQueue, DropsWhenFull) {
  PacketFactory f;
  DropTailQueue q(ByteSize(3000));
  struct OverflowCounter final : PacketObserver {
    void on_drop(const Packet&, DropReason r, Time) override {
      EXPECT_EQ(r, DropReason::kOverflow);
      ++drops;
    }
    int drops = 0;
  } observer;
  q.set_observer(&observer);
  q.enqueue(make_pkt(f, 1500), kTimeZero);
  q.enqueue(make_pkt(f, 1500), kTimeZero);
  q.enqueue(make_pkt(f, 1500), kTimeZero);  // over the 3000-byte limit
  EXPECT_EQ(observer.drops, 1);
  EXPECT_EQ(q.drops_total(), 1u);
  EXPECT_EQ(q.packet_count(), 2u);
}

TEST(DropTailQueue, ExactFitAccepted) {
  PacketFactory f;
  DropTailQueue q(ByteSize(3000));
  q.enqueue(make_pkt(f, 1500), kTimeZero);
  q.enqueue(make_pkt(f, 1500), kTimeZero);
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.drops_total(), 0u);
}

TEST(DropTailQueue, SmallPacketFitsAfterBigDrop) {
  PacketFactory f;
  DropTailQueue q(ByteSize(2000));
  q.enqueue(make_pkt(f, 1500), kTimeZero);
  q.enqueue(make_pkt(f, 1500), kTimeZero);  // dropped
  q.enqueue(make_pkt(f, 400), kTimeZero);   // fits
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.drops_total(), 1u);
}

TEST(DropTailQueue, StampsEnqueueTime) {
  PacketFactory f;
  DropTailQueue q(10_KB);
  q.enqueue(make_pkt(f, 100), 5_sec);
  auto p = q.dequeue(6_sec);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->enqueued, 5_sec);
}

TEST(PacketFactory, UniqueIncreasingIds) {
  PacketFactory f;
  auto a = make_pkt(f, 100);
  auto b = make_pkt(f, 100);
  EXPECT_LT(a->uid, b->uid);
  EXPECT_EQ(f.created_total(), 2u);
}

TEST(TrafficClassNames, AllNamed) {
  EXPECT_EQ(to_string(TrafficClass::kGameStream), "game");
  EXPECT_EQ(to_string(TrafficClass::kTcpData), "tcp");
  EXPECT_EQ(to_string(TrafficClass::kTcpAck), "ack");
  EXPECT_EQ(to_string(TrafficClass::kPing), "ping");
  EXPECT_EQ(to_string(TrafficClass::kStreamInput), "input");
}

}  // namespace
}  // namespace cgs::net
