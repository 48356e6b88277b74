// N-flow traffic mixes end to end: fairness between competing TCP flows,
// per-flow traces, seed isolation, and the mix-extension determinism
// contract (adding a flow never perturbs the other flows' streams).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/metrics.hpp"
#include "core/testbed.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;
using namespace std::chrono;

TEST(MultiFlow, TwoCubicFlowsShareEvenly) {
  Scenario sc;
  sc.capacity = 25_mbps;
  sc.queue_bdp_mult = 1.0;
  sc.duration = 120_sec;
  sc.seed = 3;
  sc.flows = {FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt)};
  Testbed bed(sc);
  const RunTrace t = bed.run();

  const double a = t.mean_flow_mbps(1, 30_sec, 120_sec);
  const double b = t.mean_flow_mbps(2, 30_sec, 120_sec);
  // Identical algorithm and RTT: each flow gets ~half the 25 Mb/s pipe.
  EXPECT_NEAR(a, 12.5, 2.5);
  EXPECT_NEAR(b, 12.5, 2.5);
  EXPECT_GT(jain_index(flow_throughputs_mbps(t, 30_sec, 120_sec)), 0.95);
}

TEST(MultiFlow, BbrDominatesCubicInShallowBuffers) {
  // The paper's BBRv1 dominance result: with a small bottleneck buffer
  // BBR's inflight cap starves loss-based cubic.
  Scenario sc;
  sc.capacity = 25_mbps;
  sc.queue_bdp_mult = 0.5;
  sc.duration = 120_sec;
  sc.seed = 3;
  sc.flows = {FlowSpec::bulk_tcp(tcp::CcAlgo::kBbr, kTimeZero, std::nullopt),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt)};
  Testbed bed(sc);
  const RunTrace t = bed.run();

  const double bbr = t.mean_flow_mbps(1, 30_sec, 120_sec);
  const double cubic = t.mean_flow_mbps(2, 30_sec, 120_sec);
  EXPECT_GT(bbr, 2.0 * cubic);
  EXPECT_LT(jain_index(flow_throughputs_mbps(t, 30_sec, 120_sec)), 0.9);
}

TEST(MultiFlow, RttHandicapReducesCubicShare) {
  // Cubic throughput scales inversely with RTT: a flow with extra one-way
  // delay on its access link must lose the bandwidth race.
  Scenario sc;
  sc.capacity = 25_mbps;
  sc.queue_bdp_mult = 1.0;
  sc.duration = 120_sec;
  sc.seed = 3;
  FlowSpec slow =
      FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt);
  slow.extra_owd = 50_ms;
  sc.flows = {FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt),
              slow};
  Testbed bed(sc);
  const RunTrace t = bed.run();
  EXPECT_GT(t.mean_flow_mbps(1, 30_sec, 120_sec),
            t.mean_flow_mbps(2, 30_sec, 120_sec));
}

TEST(MultiFlow, TwoGamePlusTcpCompletesAndIsDeterministic) {
  Scenario sc;
  sc.capacity = 50_mbps;
  sc.queue_bdp_mult = 2.0;
  sc.duration = 60_sec;
  sc.seed = 7;
  sc.flows = {FlowSpec::game_stream(stream::GameSystem::kStadia),
              FlowSpec::game_stream(stream::GameSystem::kGeForce),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, 20_sec, 50_sec),
              FlowSpec::ping()};

  auto run_once = [&sc] {
    Testbed bed(sc);
    return bed.run();
  };
  const RunTrace t1 = run_once();
  ASSERT_EQ(t1.flows.size(), 4u);
  // Both streams deliver video throughout.
  EXPECT_GT(t1.mean_flow_mbps(1, 10_sec, 60_sec), 3.0);
  EXPECT_GT(t1.mean_flow_mbps(2, 10_sec, 60_sec), 3.0);
  // TCP only in its scheduled window.
  EXPECT_DOUBLE_EQ(t1.mean_flow_mbps(3, kTimeZero, 19_sec), 0.0);
  EXPECT_GT(t1.mean_flow_mbps(3, 25_sec, 45_sec), 1.0);

  // Same-seed bit-exactness across the whole per-flow trace set.
  const RunTrace t2 = run_once();
  ASSERT_EQ(t2.flows.size(), t1.flows.size());
  for (std::size_t i = 0; i < t1.flows.size(); ++i) {
    EXPECT_EQ(t1.flows[i].mbps, t2.flows[i].mbps) << "flow " << i;
    EXPECT_EQ(t1.flows[i].pkts_recv, t2.flows[i].pkts_recv) << "flow " << i;
    EXPECT_EQ(t1.flows[i].pkts_lost, t2.flows[i].pkts_lost) << "flow " << i;
  }
  EXPECT_EQ(t1.game_mbps(), t2.game_mbps());
  EXPECT_EQ(t1.tcp_mbps(), t2.tcp_mbps());
}

TEST(MultiFlow, AddingLateFlowPreservesEarlierTraces) {
  // The registry contract: per-flow seeds are pure functions of (seed, id),
  // so appending a flow that only becomes active at t=80 s must leave every
  // other flow's trace byte-identical up to that activation.
  Scenario base;
  base.capacity = 25_mbps;
  base.queue_bdp_mult = 2.0;
  base.duration = 90_sec;
  base.seed = 11;
  base.flows = {FlowSpec::game_stream(stream::GameSystem::kStadia),
                FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, 30_sec, 60_sec),
                FlowSpec::ping()};

  Scenario extended = base;
  extended.flows.push_back(
      FlowSpec::bulk_tcp(tcp::CcAlgo::kBbr, 80_sec, 88_sec));

  Testbed bed_a(base);
  const RunTrace a = bed_a.run();
  Testbed bed_b(extended);
  const RunTrace b = bed_b.run();

  const std::size_t cut = a.bucket_of(80_sec);
  ASSERT_GT(cut, 0u);
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    ASSERT_EQ(a.flows[f].id, b.flows[f].id);
    for (std::size_t k = 0; k < cut; ++k) {
      ASSERT_EQ(a.flows[f].mbps[k], b.flows[f].mbps[k])
          << "flow " << f << " bucket " << k;
      ASSERT_EQ(a.flows[f].pkts_recv[k], b.flows[f].pkts_recv[k])
          << "flow " << f << " bucket " << k;
      ASSERT_EQ(a.flows[f].pkts_lost[k], b.flows[f].pkts_lost[k])
          << "flow " << f << " bucket " << k;
    }
  }
  // RTT probes and frame presentations before the new flow's start match 1:1.
  for (std::size_t i = 0; i < a.rtt.size() && i < b.rtt.size(); ++i) {
    if (a.rtt[i].at >= 80_sec) break;
    ASSERT_EQ(a.rtt[i].at, b.rtt[i].at) << i;
    ASSERT_EQ(a.rtt[i].rtt, b.rtt[i].rtt) << i;
  }
  for (std::size_t i = 0; i < a.frame_times.size() && i < b.frame_times.size();
       ++i) {
    if (a.frame_times[i] >= 80_sec) break;
    ASSERT_EQ(a.frame_times[i], b.frame_times[i]) << i;
  }
}

TEST(MultiFlow, AccessorsThrowWhenFlowAbsent) {
  Scenario sc;
  sc.duration = 10_sec;
  sc.flows = {FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt)};
  Testbed bed(sc);
  EXPECT_THROW((void)bed.game_sender(), std::logic_error);
  EXPECT_THROW((void)bed.game_receiver(), std::logic_error);
  EXPECT_THROW((void)bed.ping(), std::logic_error);
  EXPECT_EQ(bed.tcp_flow(), &*bed.tcp_flows().front().flow);

  try {
    (void)bed.game_sender();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("no game-stream flow"),
              std::string::npos)
        << e.what();
  }
}

TEST(MultiFlow, FlowMasterRngIsAPureFunctionOfSeedAndId) {
  // Same (seed, id) -> same stream; different id -> different stream;
  // id 1 keeps the historical single-master derivation.
  Pcg32 a = Testbed::flow_master_rng(42, 2);
  Pcg32 b = Testbed::flow_master_rng(42, 2);
  Pcg32 c = Testbed::flow_master_rng(42, 3);
  Pcg32 legacy = Testbed::flow_master_rng(42, 1);
  Pcg32 master(42);
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const auto va = a.next_u32();
    EXPECT_EQ(va, b.next_u32());
    differs = differs || va != c.next_u32();
    EXPECT_EQ(legacy.next_u32(), master.next_u32());
  }
  EXPECT_TRUE(differs);
}

TEST(MultiFlow, PerFlowImpairmentOverrideCreatesOneStage) {
  Scenario sc;
  sc.duration = 10_sec;
  net::ImpairmentConfig lossy;
  lossy.loss_rate = 0.05;
  FlowSpec impaired =
      FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt);
  impaired.impair_up = lossy;
  sc.flows = {FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt),
              impaired};
  Testbed bed(sc);
  // Only the overridden flow gets an upstream impairment stage.
  EXPECT_EQ(bed.upstream_impairments().size(), 1u);
  (void)bed.run();
}

TEST(MultiFlow, FourFlowMixEndToEnd) {
  // Acceptance mix: 2 game streams + 2 TCP flows through one bottleneck,
  // per-flow series populated and an N-flow Jain index over all four.
  Scenario sc;
  sc.capacity = 50_mbps;
  sc.queue_bdp_mult = 2.0;
  sc.duration = 90_sec;
  sc.seed = 5;
  sc.flows = {FlowSpec::game_stream(stream::GameSystem::kStadia),
              FlowSpec::game_stream(stream::GameSystem::kLuna),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, 10_sec, 80_sec),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kBbr, 10_sec, 80_sec),
              FlowSpec::ping()};
  Testbed bed(sc);
  const RunTrace t = bed.run();

  ASSERT_EQ(t.flows.size(), 5u);
  for (const FlowTrace& f : t.flows) {
    EXPECT_EQ(f.mbps.size(), t.game_mbps().size()) << f.name;
  }
  // All four throughput-bearing flows moved data in the contested window.
  const auto tp = flow_throughputs_mbps(t, 20_sec, 70_sec);
  ASSERT_EQ(tp.size(), 4u);  // ping excluded
  for (double mbps : tp) EXPECT_GT(mbps, 0.5);

  const double jain = jain_index(tp);
  EXPECT_GT(jain, 0.0);
  EXPECT_LE(jain, 1.0);

  // Two-flow views: game_mbps mirrors the first game flow, tcp_mbps sums
  // both TCP flows.
  EXPECT_EQ(t.game_mbps(), t.flows[0].mbps);
  const std::vector<double> tcp = t.tcp_mbps();
  for (std::size_t k = 0; k < tcp.size(); ++k) {
    EXPECT_DOUBLE_EQ(tcp[k], t.flows[2].mbps[k] + t.flows[3].mbps[k]);
  }
}

}  // namespace
}  // namespace cgs::core
