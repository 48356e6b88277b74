#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "sim/timer.hpp"

namespace cgs::sim {
namespace {

using namespace cgs::literals;

/// Records the flow id of every packet it is handed.
struct FlowLog final : net::PacketSink {
  explicit FlowLog(std::vector<int>* fired) : fired(fired) {}
  void handle_packet(net::PacketPtr pkt) override {
    fired->push_back(int(pkt->flow));
  }
  std::vector<int>* fired;
};

net::PacketPtr packet_of_flow(net::PacketFactory& f, int flow) {
  return f.make(net::FlowId(flow), net::TrafficClass::kGameStream,
                net::kRtpWire, kTimeZero, net::RtpHeader{});
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3_sec, [&] { fired.push_back(3); });
  q.push(1_sec, [&] { fired.push_back(1); });
  q.push(2_sec, [&] { fired.push_back(2); });
  while (!q.empty()) q.run_top();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreakByInsertionOrder) {
  // Callbacks and typed packet events for two sinks at one instant fire
  // in push order, whatever their kind or sink.
  EventQueue q;
  net::PacketFactory factory;
  std::vector<int> fired;
  FlowLog a(&fired), b(&fired);
  for (int i = 0; i < 12; ++i) {
    switch (i % 3) {
      case 0:
        q.push(5_sec, [&fired, i] { fired.push_back(i); });
        break;
      case 1:
        q.push_packet(5_sec, &a, packet_of_flow(factory, i));
        break;
      default:
        q.push_packet(5_sec, &b, packet_of_flow(factory, i));
        break;
    }
  }
  while (!q.empty()) q.run_top();
  ASSERT_EQ(fired.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(fired[std::size_t(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(1_sec, [&] { ++fired; });
  q.push(2_sec, [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.run_top();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventId id = q.push(1_sec, [] {});
  q.cancel(id);
  q.cancel(id);  // no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.push(1_sec, [] {});
  q.push(2_sec, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 2_sec);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = kTimeZero;
  sim.schedule_at(5_sec, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 5_sec);
  EXPECT_EQ(sim.now(), 5_sec);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<Time> at;
  sim.schedule_in(1_sec, [&] {
    at.push_back(sim.now());
    sim.schedule_in(2_sec, [&] { at.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], 1_sec);
  EXPECT_EQ(at[1], 3_sec);
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator sim;
  sim.schedule_at(10_sec, [&] {
    sim.schedule_at(1_sec, [&] { EXPECT_EQ(sim.now(), 10_sec); });
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_sec, [&] { ++fired; });
  sim.schedule_at(10_sec, [&] { ++fired; });
  sim.run_until(5_sec);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5_sec);  // clock parked at the deadline
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(20_sec);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventCountTracking) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(Time(i), [] {});
  sim.run();
  EXPECT_EQ(sim.processed_events(), 5u);
}

TEST(Watchdog, DisabledByDefault) {
  Simulator sim;
  for (int i = 0; i < 100; ++i) sim.schedule_in(Time(i), [] {});
  EXPECT_NO_THROW(sim.run());
}

TEST(Watchdog, EventBudgetAbortsLivelock) {
  Simulator sim;
  sim.set_watchdog(/*max_events=*/1000);
  // Deliberate livelock: an event that perpetually reschedules itself at
  // the current time, so the clock never advances and run() never returns.
  std::uint64_t spins = 0;
  std::function<void()> spin = [&] {
    ++spins;
    sim.schedule_in(kTimeZero, [&] { spin(); });
  };
  sim.schedule_at(1_sec, [&] { spin(); });
  try {
    sim.run();
    FAIL() << "watchdog did not fire";
  } catch (const WatchdogError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("event budget"), std::string::npos) << what;
    EXPECT_NE(what.find("livelock"), std::string::npos) << what;
  }
  EXPECT_GE(sim.processed_events(), 1000u);
  EXPECT_LE(spins, 1001u);  // aborted promptly, not after millions of spins
}

TEST(Watchdog, EventBudgetCountsSameInstantDeliveriesOneByOne) {
  // Ten deliveries to one sink at one instant are ten events: a budget of
  // five lets exactly five through, then trips before the sixth.
  Simulator sim;
  net::PacketFactory factory;
  std::vector<int> delivered;
  FlowLog sink(&delivered);
  for (int i = 0; i < 10; ++i) {
    sim.push_packet_at(1_sec, &sink, packet_of_flow(factory, i));
  }
  sim.set_watchdog(/*max_events=*/5);
  EXPECT_THROW(sim.run_until(2_sec), WatchdogError);
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.processed_events(), 5u);
  EXPECT_EQ(sim.pending_events(), 5u);
}

TEST(Watchdog, EventBudgetSpansRunUntilSlices) {
  // The budget counts every event the simulator ever ran, not per call: a
  // run sliced by run_until() trips at the same event as one run() would.
  Simulator sim;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(std::chrono::seconds(i), [] {});
  }
  sim.set_watchdog(/*max_events=*/6);
  sim.run_until(5_sec);
  EXPECT_EQ(sim.processed_events(), 5u);
  EXPECT_EQ(sim.now(), 5_sec);
  EXPECT_THROW(sim.run_until(20_sec), WatchdogError);
  EXPECT_EQ(sim.processed_events(), 6u);
  EXPECT_EQ(sim.pending_events(), 4u);
}

TEST(Watchdog, GenerousBudgetDoesNotTriggerOnHealthyRun) {
  Simulator sim;
  sim.set_watchdog(/*max_events=*/10'000);
  for (int i = 0; i < 100; ++i) sim.schedule_in(Time(i * 1000), [] {});
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(sim.processed_events(), 100u);
}

TEST(OneShotTimer, FiresOnce) {
  Simulator sim;
  int fired = 0;
  OneShotTimer t(sim, [&] { ++fired; });
  t.arm(1_sec);
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(OneShotTimer, RearmResetsExpiry) {
  Simulator sim;
  int fired = 0;
  OneShotTimer t(sim, [&] { ++fired; });
  t.arm(1_sec);
  t.arm(5_sec);  // re-arm before firing
  sim.run_until(2_sec);
  EXPECT_EQ(fired, 0);
  sim.run_until(6_sec);
  EXPECT_EQ(fired, 1);
}

TEST(OneShotTimer, RearmFromOwnCallback) {
  Simulator sim;
  int fired = 0;
  OneShotTimer* tp = nullptr;
  OneShotTimer t(sim, [&] {
    if (++fired < 3) tp->arm(1_sec);
  });
  tp = &t;
  t.arm(1_sec);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 3_sec);
}

TEST(OneShotTimer, CancelPreventsFire) {
  Simulator sim;
  int fired = 0;
  OneShotTimer t(sim, [&] { ++fired; });
  t.arm(1_sec);
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(PeriodicTimer, FiresEveryPeriod) {
  Simulator sim;
  std::vector<Time> at;
  PeriodicTimer t(sim, 100_ms, [&] { at.push_back(sim.now()); });
  t.start();
  sim.run_until(1_sec);
  ASSERT_EQ(at.size(), 10u);
  EXPECT_EQ(at.front(), 100_ms);
  EXPECT_EQ(at.back(), 1_sec);
}

TEST(PeriodicTimer, FireNowStartsImmediately) {
  Simulator sim;
  std::vector<Time> at;
  PeriodicTimer t(sim, 100_ms, [&] { at.push_back(sim.now()); });
  t.start(/*fire_now=*/true);
  sim.run_until(250_ms);
  ASSERT_EQ(at.size(), 3u);  // 0, 100, 200 ms
  EXPECT_EQ(at.front(), kTimeZero);
}

TEST(PeriodicTimer, StopFromCallback) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer* tp = nullptr;
  PeriodicTimer t(sim, 10_ms, [&] {
    if (++fired == 3) tp->stop();
  });
  tp = &t;
  t.start();
  sim.run_until(1_sec);
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTimer, DestructorCancels) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTimer t(sim, 10_ms, [&] { ++fired; });
    t.start();
  }
  sim.run_until(100_ms);
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace cgs::sim
