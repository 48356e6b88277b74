// TCP endpoint behaviour under injected path faults: multi-second
// blackouts (RTO backoff + cap), reordering (spurious dupACKs), and
// bursty Gilbert-Elliott loss against a CoDel bottleneck.
#include <gtest/gtest.h>

#include "net/impairment.hpp"
#include "net/topology.hpp"
#include "tcp/bulk_app.hpp"

namespace cgs::tcp {
namespace {

using namespace cgs::literals;

/// The bottleneck (1 ms propagation, `kind` queue of `queue` bytes) with a
/// netem-style ingress impairment stage "down" on PCG stream (7, 0xd01).
net::TopologySpec impaired_bottleneck(Bandwidth cap, net::QueueKind kind,
                                      ByteSize queue,
                                      net::ImpairmentConfig cfg) {
  net::TopologySpec spec = net::TopologySpec::single_bottleneck(cap, 1_ms);
  spec.links[0].queue = kind;
  spec.links[0].queue_bytes = queue;
  spec.links[0].impair = std::move(cfg);
  return spec;
}

/// TcpHarness with a netem-style impairment stage on the downstream path
/// (sender -> access pad -> impairment -> bottleneck).
struct ImpairedTcpHarness {
  sim::Simulator sim;
  net::PacketFactory factory;
  net::TopologyGraph graph;
  net::Impairment& impair;
  net::DelayLine access;
  BulkTcpFlow flow;

  ImpairedTcpHarness(CcAlgo algo, Bandwidth cap, net::QueueKind kind,
                     ByteSize queue, net::ImpairmentConfig cfg,
                     Time rtt = 16500_us)
      : graph(sim, factory,
              impaired_bottleneck(cap, kind, queue, std::move(cfg)),
              {.seed = 7}),
        impair(*graph.ingress_impairment(0)),
        access(sim, (rtt - 2_ms) / 2, &impair),
        flow(sim, factory, 7, algo) {
    graph.register_client(7, &flow.receiver());
    flow.attach(&access, &graph.make_upstream(7, (rtt - 2_ms) / 2 + 1_ms,
                                              &flow.sender()));
  }
};

TEST(TcpRobustness, RtoBacksOffExponentiallyAcrossBlackout) {
  net::ImpairmentConfig cfg;
  cfg.outages.push_back({2_sec, 7_sec, net::OutagePolicy::kDrop});
  ImpairedTcpHarness h(CcAlgo::kCubic, 25_mbps, net::QueueKind::kDropTail,
                       100_KB, cfg);
  // A livelocked retransmit loop would trip this; a healthy run is far under.
  h.sim.set_watchdog(10'000'000);
  h.flow.sender().start();
  h.sim.run_until(2_sec);
  const auto before = h.flow.receiver().bytes_delivered().bytes();
  EXPECT_GT(before, 0);

  h.sim.run_until(7_sec);
  // With min-RTO 200 ms and doubling (0.2, 0.4, 0.8, 1.6, 3.2 s) a 5 s
  // blackout fits about 5 RTO firings; a non-backed-off sender would fire
  // ~25 times and a livelocked one thousands.
  const auto rtos = h.flow.sender().rto_total();
  EXPECT_GE(rtos, 2u);
  EXPECT_LE(rtos, 8u);

  h.sim.run_until(20_sec);
  const auto after = h.flow.receiver().bytes_delivered().bytes();
  // The flow recovered: substantial new data landed after the outage.
  EXPECT_GT(after, before + 10'000'000);
  // No duplicate delivery: contiguous bytes at the receiver may lead the
  // sender's cumulative ACK only by the ACKs still in flight (~1 BDP).
  EXPECT_LE(after, h.flow.sender().bytes_acked().bytes() + 100'000);
}

TEST(TcpRobustness, RtoCapBoundsRetryGapAfterLongBlackout) {
  // Across a 128 s blackout the doubling sequence alone would push the next
  // retry past t=206 s; the 60 s ceiling (TcpSender::kMaxRto) guarantees a
  // probe lands within one cap interval of the link returning at t=130 s.
  net::ImpairmentConfig cfg;
  cfg.outages.push_back({2_sec, 130_sec, net::OutagePolicy::kDrop});
  ImpairedTcpHarness h(CcAlgo::kCubic, 25_mbps, net::QueueKind::kDropTail,
                       100_KB, cfg);
  h.sim.set_watchdog(50'000'000);
  h.flow.sender().start();
  h.sim.run_until(130_sec);
  const auto during = h.flow.receiver().bytes_delivered().bytes();
  const auto rtos_during = h.flow.sender().rto_total();
  // Exponential backoff: ~10 firings over 128 s, not 640.
  EXPECT_LE(rtos_during, 12u);

  h.sim.run_until(Time(std::chrono::seconds(130)) + TcpSender::kMaxRto +
                  5_sec);
  EXPECT_GT(h.flow.receiver().bytes_delivered().bytes(), during + 1'000'000)
      << "sender did not probe within one capped RTO of the link returning";
}

TEST(TcpRobustness, ReorderingDupAcksDoNotStallTheFlow) {
  // 2 ms of reordering jitter on a 16.5 ms RTT path: enough to generate
  // spurious dupACK bursts (and the occasional spurious fast retransmit).
  // The sender must keep exiting recovery and hold most of the link.
  net::ImpairmentConfig cfg;
  cfg.jitter = 2_ms;
  cfg.allow_reorder = true;
  ImpairedTcpHarness h(CcAlgo::kCubic, 25_mbps, net::QueueKind::kDropTail,
                       bdp(25_mbps, 16500_us) * 2, cfg);
  h.sim.set_watchdog(50'000'000);
  h.flow.sender().start();
  h.sim.run_until(15_sec);
  const double goodput =
      rate_of(h.flow.receiver().bytes_delivered(), 15_sec).megabits_per_sec();
  // Spurious fast retransmits cost throughput (this stack has no RACK-style
  // reordering tolerance) but must never wedge the flow.
  EXPECT_GT(goodput, 25.0 * 0.25);
  EXPECT_GT(h.flow.sender().retransmits_total(), 0u);
  // Contiguous delivery despite the reordering (ACK-in-flight slack).
  EXPECT_LE(h.flow.receiver().bytes_delivered().bytes(),
            h.flow.sender().bytes_acked().bytes() + 100'000);
}

TEST(TcpRobustness, SurvivesGilbertElliottLossIntoCodel) {
  // ~2% bursty loss in front of a CoDel bottleneck: the combination of
  // SACK recovery and CoDel's own drops must not wedge either endpoint.
  net::ImpairmentConfig cfg;
  cfg.gilbert_elliott = net::GilbertElliott{
      .p_good_bad = 0.005, .p_bad_good = 0.25, .good_loss = 0.0,
      .bad_loss = 1.0};
  ImpairedTcpHarness h(CcAlgo::kCubic, 25_mbps, net::QueueKind::kCoDel,
                       bdp(25_mbps, 16500_us) * 2, cfg);
  h.sim.set_watchdog(50'000'000);
  h.flow.sender().start();
  h.sim.run_until(20_sec);
  const double goodput =
      rate_of(h.flow.receiver().bytes_delivered(), 20_sec).megabits_per_sec();
  // Loss-limited, not wedged: real progress, real recoveries.
  EXPECT_GT(goodput, 2.0);
  EXPECT_GT(h.flow.sender().retransmits_total(), 0u);
  EXPECT_GT(h.impair.counters().dropped_random, 0u);
  EXPECT_LE(h.flow.receiver().bytes_delivered().bytes(),
            h.flow.sender().bytes_acked().bytes() + 100'000);
}

TEST(TcpRobustness, BlackoutRecoveryIsDeterministic) {
  auto run_once = [] {
    net::ImpairmentConfig cfg;
    cfg.outages.push_back({1_sec, 3_sec, net::OutagePolicy::kDrop});
    cfg.loss_rate = 0.01;
    ImpairedTcpHarness h(CcAlgo::kBbr, 25_mbps, net::QueueKind::kDropTail,
                         100_KB, cfg);
    h.flow.sender().start();
    h.sim.run_until(10_sec);
    return std::tuple{h.flow.receiver().bytes_delivered().bytes(),
                      h.flow.sender().retransmits_total(),
                      h.flow.sender().rto_total(),
                      h.sim.processed_events()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace cgs::tcp
