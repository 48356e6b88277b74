// Stream sender/receiver/display end-to-end over a bottleneck.
#include <gtest/gtest.h>

#include "net/queue.hpp"
#include "net/router.hpp"
#include "stream/profiles.hpp"
#include "stream/receiver.hpp"
#include "stream/sender.hpp"

namespace cgs::stream {
namespace {

using namespace cgs::literals;

struct StreamHarness {
  sim::Simulator sim;
  net::PacketFactory factory;
  net::BottleneckRouter router;
  net::DelayLine access;
  StreamSender sender;
  StreamReceiver receiver;

  explicit StreamHarness(GameSystem sys, Bandwidth cap = 100_mbps,
                         ByteSize queue = ByteSize(500'000))
      : router(sim, cap, 1_ms, std::make_unique<net::DropTailQueue>(queue)),
        access(sim, 7_ms, &router.downstream_in()),
        sender(sim, factory,
               StreamSender::Options{.flow = 9, .burst_factor = 1.35},
               frame_config_for(sys), make_controller(sys), Pcg32(77)),
        receiver(sim, factory,
                 StreamReceiver::Options{
                     .flow = 9,
                     .fec_rate = profile_for(sys).fec_rate,
                     .playout_deadline = profile_for(sys).playout_deadline}) {
    router.register_client(9, &receiver);
    sender.set_output(&access);
    receiver.set_output(&router.make_upstream(8_ms, &sender));
  }

  void run(Time dur) {
    receiver.start();
    sender.start();
    sim.run_until(dur);
  }
};

TEST(StreamE2e, UnconstrainedReaches60Fps) {
  StreamHarness h(GameSystem::kStadia);
  h.run(30_sec);
  EXPECT_NEAR(h.receiver.display().fps_over(10_sec, 30_sec), 60.0, 1.5);
  EXPECT_LT(h.receiver.loss_rate(), 0.001);
}

TEST(StreamE2e, RampsToProfileMax) {
  StreamHarness h(GameSystem::kStadia);
  h.run(60_sec);
  // The controller targets the profile max on the wire; the encoder runs at
  // the payload share of it (IP/UDP overhead deducted).
  EXPECT_NEAR(
      h.sender.controller().current().target_bitrate.megabits_per_sec(),
      27.5, 0.5);
  EXPECT_NEAR(h.sender.target_bitrate().megabits_per_sec(),
              27.5 * 1172.0 / 1200.0, 0.5);
}

TEST(StreamE2e, SelfInducedCongestionAdaptsBelowCapacity) {
  // 15 Mb/s capacity with a 2x-BDP queue: the controller must settle below
  // capacity with minimal standing queue (paper: solo systems keep queuing
  // low, Table 3).
  StreamHarness h(GameSystem::kStadia, 15_mbps, bdp(15_mbps, 16500_us) * 2);
  h.run(120_sec);
  const double rate = h.sender.target_bitrate().megabits_per_sec();
  EXPECT_LT(rate, 15.5);
  EXPECT_GT(rate, 8.0);
  // Lifetime loss small once settled.
  EXPECT_LT(h.receiver.loss_rate(), 0.03);
}

TEST(StreamE2e, AllSystemsSoloKeepLowLossAtConstrainedCapacity) {
  for (GameSystem sys : {GameSystem::kStadia, GameSystem::kGeForce,
                         GameSystem::kLuna}) {
    StreamHarness h(sys, 15_mbps, bdp(15_mbps, 16500_us) * 2);
    h.run(120_sec);
    EXPECT_LT(h.receiver.loss_rate(), 0.05)
        << "system " << to_string(sys);
    EXPECT_GT(h.receiver.display().fps_over(60_sec, 120_sec), 30.0)
        << "system " << to_string(sys);
  }
}

TEST(StreamE2e, FeedbackDrivesSenderState) {
  StreamHarness h(GameSystem::kLuna);
  h.run(10_sec);
  // Sender must have digested feedback: queuing delay tracked.
  EXPECT_GE(h.sender.last_queuing_delay(), kTimeZero);
  EXPECT_GT(h.sender.bytes_sent().bytes(), 0);
}

TEST(StreamE2e, DisplayCountsDroppedFramesUnderHeavyLoss) {
  // 5 Mb/s capacity, tiny queue, Stadia starting at 12 Mb/s: frames die.
  StreamHarness h(GameSystem::kStadia, Bandwidth::mbps(5.0), ByteSize(8000));
  h.run(10_sec);
  EXPECT_GT(h.receiver.display().dropped_total(), 0u);
  EXPECT_LT(h.receiver.display().fps_over(2_sec, 10_sec), 60.0);
}

TEST(StreamE2e, DeterministicAcrossRuns) {
  auto run_once = [] {
    StreamHarness h(GameSystem::kLuna, 25_mbps, 100_KB);
    h.run(20_sec);
    return std::tuple{h.sender.bytes_sent().bytes(),
                      h.receiver.packets_received(),
                      h.receiver.display().presented_total()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Packetizer, SplitsFramesIntoMtuPackets) {
  net::PacketFactory f;
  Packetizer p(f, 3);
  Frame frame{.id = 7, .bytes = ByteSize(5000), .keyframe = true,
              .gen_time = 1_sec};
  util::RingBuffer<net::PacketPtr> pkts;
  // ceil(5000 / 1172) = 5 packets.
  ASSERT_EQ(p.packetize(frame, 2_sec, pkts), 5u);
  ASSERT_EQ(pkts.size(), 5u);
  std::int64_t payload = 0;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const auto& h = std::get<net::RtpHeader>(pkts[i]->header);
    EXPECT_EQ(h.frame_id, 7u);
    EXPECT_EQ(h.pkt_index, i);
    EXPECT_EQ(h.pkts_in_frame, 5);
    EXPECT_TRUE(h.keyframe);
    EXPECT_EQ(h.frame_gen_time, 1_sec);
    payload += pkts[i]->size_bytes - net::kIpUdpOverhead;
  }
  EXPECT_EQ(payload, 5000);
}

TEST(Packetizer, SequenceNumbersContinuous) {
  net::PacketFactory f;
  Packetizer p(f, 3);
  Frame a{.id = 0, .bytes = ByteSize(2000), .keyframe = false,
          .gen_time = kTimeZero};
  Frame b{.id = 1, .bytes = ByteSize(2000), .keyframe = false,
          .gen_time = kTimeZero};
  util::RingBuffer<net::PacketPtr> pkts;
  const std::size_t n_a = p.packetize(a, kTimeZero, pkts);
  const std::size_t n_b = p.packetize(b, kTimeZero, pkts);
  ASSERT_EQ(pkts.size(), n_a + n_b);
  // b's packets follow a's in the same queue, sequence numbers unbroken.
  const auto last_a = std::get<net::RtpHeader>(pkts[n_a - 1]->header).seq;
  const auto first_b = std::get<net::RtpHeader>(pkts[n_a]->header).seq;
  EXPECT_EQ(first_b, last_a + 1);
}

TEST(Display, FpsOverWindow) {
  DisplayModel d;
  for (int i = 0; i < 120; ++i) {
    d.frame_presented(std::uint32_t(i), Time(std::chrono::milliseconds(i * 25)));
  }
  // 40 f/s cadence.
  EXPECT_NEAR(d.fps_over(kTimeZero, 3_sec), 40.0, 0.5);
  EXPECT_NEAR(d.fps_over(1_sec, 2_sec), 40.0, 1.0);
  EXPECT_DOUBLE_EQ(d.fps_over(1_sec, 1_sec), 0.0);
}

}  // namespace
}  // namespace cgs::stream
