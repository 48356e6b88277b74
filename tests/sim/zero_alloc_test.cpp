// Proves the hot-path zero-allocation property with a counting global
// allocator: once warmed up, event push/pop/cancel/reschedule, periodic
// timer ticks, packet make/free and the game-stream frame cycle must not
// touch the heap at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stream/profiles.hpp"
#include "stream/sender.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting allocator for this test binary only. All overloads funnel
// through plain malloc/free so alignment-extended forms stay correct.
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(std::size_t(al), (n + std::size_t(al) - 1) &
                                                        ~(std::size_t(al) - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cgs::sim {
namespace {

using namespace cgs::literals;

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(ZeroAlloc, EventQueueSteadyState) {
  EventQueue q;
  // Warm-up: size the slab and heap beyond anything the loop below needs.
  std::vector<EventId> ids;
  for (int i = 0; i < 512; ++i) ids.push_back(q.push(Time(i), [] {}));
  for (EventId id : ids) q.cancel(id);
  while (!q.empty()) q.pop();

  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 100; ++round) {
    EventId keep[64];
    for (int i = 0; i < 64; ++i) keep[i] = q.push(Time(round * 64 + i), [] {});
    for (int i = 0; i < 64; i += 2) {
      keep[i] = q.reschedule(keep[i], Time(round * 64 + i + 1));
    }
    for (int i = 1; i < 64; i += 2) q.cancel(keep[i]);
    while (!q.empty()) q.pop();
  }
  EXPECT_EQ(allocation_count() - before, 0u)
      << "event push/pop/cancel/reschedule must not allocate";
}

TEST(ZeroAlloc, SimulatorTimerSteadyState) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer periodic(sim, 1_ms, [&] { ++ticks; });
  OneShotTimer oneshot(sim, [] {});
  periodic.start();
  // Warm-up: run some ticks and a burst of rearms so the slab, the heap
  // vector (including lazy-deletion headroom), and its growth are all
  // behind us before counting.
  for (int i = 0; i < 200; ++i) oneshot.arm(1_sec);
  oneshot.cancel();
  sim.run_until(50_ms);

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 200; ++i) oneshot.arm(5_ms);  // rearm-in-place path
  sim.run_until(1_sec);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "periodic ticks and one-shot rearms must not allocate";
  EXPECT_EQ(ticks, 1000);
}

TEST(ZeroAlloc, PacketMakeFreeSteadyState) {
  net::PacketFactory factory;
  {
    // Warm-up: carve enough pooled storage for the loop's window.
    net::PacketPtr warm[64];
    for (auto& p : warm) {
      p = factory.make(1, net::TrafficClass::kTcpData, 1500, kTimeZero,
                       net::TcpHeader{});
    }
  }

  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 1000; ++round) {
    net::PacketPtr window[32];
    for (auto& p : window) {
      p = factory.make(1, net::TrafficClass::kTcpData, 1500, Time(round),
                       net::TcpHeader{});
    }
  }
  EXPECT_EQ(allocation_count() - before, 0u)
      << "steady-state packet make/free must not allocate";
  EXPECT_GT(factory.pool().recycled_total(), 0u);
}

TEST(ZeroAlloc, LinkTrafficSteadyState) {
  // End-to-end: packets crossing a Link schedule serialisation and
  // propagation events whose closures own the PacketPtr — the whole cycle
  // must run allocation-free once pools are warm.
  struct NullSink final : net::PacketSink {
    void handle_packet(net::PacketPtr) override {}
  };
  Simulator sim;
  net::PacketFactory factory;
  NullSink sink;
  net::Link link(sim, "l", 1_gbps, 1_ms,
                 std::make_unique<net::DropTailQueue>(10_MB), &sink);

  auto drive = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      link.handle_packet(factory.make(1, net::TrafficClass::kTcpData, 1500,
                                      sim.now(), net::TcpHeader{}));
    }
    sim.run();
  };
  drive(256);  // warm-up

  const std::uint64_t before = allocation_count();
  drive(256);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "packet forwarding through a Link must not allocate";
}

TEST(ZeroAlloc, StreamSenderFrameCycleSteadyState) {
  // The game-stream send path: encoder tick, packetizer straight into the
  // ring send queue, paced drain into the network.  Once keyframes have
  // sized the ring and the packet pool, further frames must not allocate.
  struct NullSink final : net::PacketSink {
    void handle_packet(net::PacketPtr) override {}
  };
  Simulator sim;
  net::PacketFactory factory;
  NullSink sink;
  stream::StreamSender::Options opts;
  opts.flow = 1;
  stream::StreamSender sender(
      sim, factory, opts, stream::FrameSourceConfig{},
      stream::make_controller(stream::GameSystem::kStadia), Pcg32(7));
  sender.set_output(&sink);
  sender.start();
  sim.run_until(12_sec);  // warm-up: two keyframes (one per 300 frames)

  const std::uint64_t before = allocation_count();
  const std::uint64_t made_before = factory.created_total();
  sim.run_until(24_sec);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "a warm stream sender's frame cycle must not allocate";
  EXPECT_GT(factory.created_total() - made_before, 10'000u)
      << "the measured window must actually carry frames";
}

}  // namespace
}  // namespace cgs::sim
