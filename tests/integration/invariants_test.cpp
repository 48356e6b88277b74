// Property-style invariant sweeps over the full experiment grid
// (parameterised gtest): conservation laws and sanity bounds that must hold
// for EVERY system x CCA x queue-size combination, on shortened schedules.
#include <gtest/gtest.h>

#include <set>

#include "core/testbed.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;
using Param = std::tuple<stream::GameSystem, tcp::CcAlgo, double>;

/// Tap counters for the bottleneck's conservation accounting.
struct Conservation final : net::PacketObserver {
  void on_arrival(const net::Packet&, Time) override { ++arrived; }
  void on_drop(const net::Packet&, net::DropReason, Time) override {
    ++dropped;
  }
  void on_deliver(const net::Packet& p, Time) override {
    ++delivered;
    delivered_bytes += p.size_bytes;
    duplicate |= !seen_uids.insert(p.uid).second;
  }
  std::uint64_t arrived = 0, dropped = 0, delivered = 0;
  std::int64_t delivered_bytes = 0;
  std::set<std::uint64_t> seen_uids;
  bool duplicate = false;
};

class GridInvariants : public ::testing::TestWithParam<Param> {
 protected:
  Scenario scenario() const {
    const auto& [sys, cc, q] = GetParam();
    Scenario sc;
    sc.system = sys;
    sc.tcp_algo = cc;
    sc.capacity = 25_mbps;
    sc.queue_bdp_mult = q;
    sc.duration = 60_sec;
    sc.tcp_start = 20_sec;
    sc.tcp_stop = 40_sec;
    sc.seed = 99;
    return sc;
  }
};

TEST_P(GridInvariants, ConservationAndBounds) {
  const Scenario sc = scenario();
  Testbed bed(sc);

  // Tap the bottleneck for conservation accounting.
  Conservation c;
  net::Link& bottleneck = bed.topology().bottleneck();
  bottleneck.add_observer(&c);

  const RunTrace trace = bed.run();

  // 1) Packet conservation at the queue: everything that arrived was
  //    delivered, dropped, or is still resident (in the queue, in the
  //    transmitter, or propagating — propagation holds at most
  //    prop_delay/serialisation_time ~ a few dozen packets).
  const std::uint64_t resident = bottleneck.queue().packet_count() + 64;
  EXPECT_LE(c.arrived, c.delivered + c.dropped + resident);
  EXPECT_GE(c.arrived, c.delivered + c.dropped);

  // 2) No packet delivered twice.
  EXPECT_FALSE(c.duplicate);

  // 3) Link never exceeds capacity: delivered bytes over the run fit in
  //    capacity * duration (with one packet of slack).
  EXPECT_LE(c.delivered_bytes,
            sc.capacity.bytes_over(sc.duration).bytes() + 1514);

  // 4) The game receiver's loss accounting is a valid fraction.
  const double loss = bed.game_receiver().loss_rate();
  EXPECT_GE(loss, 0.0);
  EXPECT_LE(loss, 1.0);

  // 5) Every ping RTT >= base RTT (nothing travels faster than the path).
  for (const auto& s : trace.rtt) {
    EXPECT_GE(s.rtt, sc.base_rtt - 100_us);
  }

  // 6) Displayed frame rate can never exceed the 60 f/s encoder cadence.
  EXPECT_LE(trace.fps_over(5_sec, 60_sec), 61.0);

  // 7) TCP delivered bytes are contiguous in-order bytes; the receiver
  //    can't have delivered more than the sender ever ACKed + one window.
  auto* tcp = bed.tcp_flow();
  ASSERT_NE(tcp, nullptr);
  EXPECT_GE(tcp->sender().bytes_acked() + ByteSize(2 * 1448),
            tcp->receiver().bytes_delivered());

  // 8) Bitrate series are non-negative and bounded by capacity + slack.
  for (double v : trace.game_mbps()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, sc.capacity.megabits_per_sec() * 1.05 + 0.5);
  }
}

TEST_P(GridInvariants, DeterministicReplay) {
  const Scenario sc = scenario();
  auto run_sig = [&] {
    Testbed bed(sc);
    const RunTrace t = bed.run();
    double sum = 0;
    for (double v : t.game_mbps()) sum += v;
    for (double v : t.tcp_mbps()) sum += v;
    return std::tuple{sum, t.rtt.size(), t.frame_times.size(),
                      bed.simulator().processed_events()};
  };
  EXPECT_EQ(run_sig(), run_sig());
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, GridInvariants,
    ::testing::Combine(
        ::testing::Values(stream::GameSystem::kStadia,
                          stream::GameSystem::kGeForce,
                          stream::GameSystem::kLuna),
        ::testing::Values(tcp::CcAlgo::kCubic, tcp::CcAlgo::kBbr),
        ::testing::Values(0.5, 2.0, 7.0)),
    [](const auto& info) {
      const auto sys = std::get<0>(info.param);
      const auto cc = std::get<1>(info.param);
      const double q = std::get<2>(info.param);
      std::string name = std::string(stream::to_string(sys)) + "_" +
                         std::string(tcp::to_string(cc)) + "_q" +
                         (q < 1.0 ? "05" : (q < 5.0 ? "2" : "7"));
      return name;
    });

// The AQM disciplines must satisfy the same conservation law.
class AqmInvariants : public ::testing::TestWithParam<QueueKind> {};

TEST_P(AqmInvariants, Conservation) {
  Scenario sc;
  sc.queue_kind = GetParam();
  sc.capacity = 25_mbps;
  sc.duration = 40_sec;
  sc.tcp_start = 10_sec;
  sc.tcp_stop = 30_sec;
  Testbed bed(sc);
  Conservation c;
  net::Link& bottleneck = bed.topology().bottleneck();
  bottleneck.add_observer(&c);
  (void)bed.run();
  EXPECT_LE(c.arrived,
            c.delivered + c.dropped + bottleneck.queue().packet_count() + 64);
  EXPECT_GE(c.arrived, c.delivered + c.dropped);
}

INSTANTIATE_TEST_SUITE_P(AllQdiscs, AqmInvariants,
                         ::testing::Values(QueueKind::kDropTail,
                                           QueueKind::kCoDel,
                                           QueueKind::kFqCoDel),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace cgs::core
