#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/testbed.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;

/// Runs validate() and returns the exception message (empty = no throw).
std::string validation_message(const Scenario& sc) {
  try {
    sc.validate();
    return {};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(ScenarioValidation, DefaultScenarioIsValid) {
  EXPECT_EQ(validation_message(Scenario{}), "");
}

TEST(ScenarioValidation, RejectsNonPositiveCapacity) {
  Scenario sc;
  sc.capacity = Bandwidth(0);
  const std::string msg = validation_message(sc);
  EXPECT_NE(msg.find("Scenario:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("capacity must be > 0"), std::string::npos) << msg;
}

TEST(ScenarioValidation, RejectsNonPositiveQueueMult) {
  Scenario sc;
  sc.queue_bdp_mult = 0.0;
  EXPECT_NE(validation_message(sc).find("queue_bdp_mult must be > 0"),
            std::string::npos);
  sc.queue_bdp_mult = -2.0;
  EXPECT_NE(validation_message(sc).find("queue_bdp_mult must be > 0"),
            std::string::npos);
  sc.queue_bdp_mult = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(validation_message(sc).find("queue_bdp_mult"), std::string::npos);
}

TEST(ScenarioValidation, RejectsNonPositiveDuration) {
  Scenario sc;
  sc.duration = kTimeZero;
  sc.tcp_algo.reset();  // isolate the duration check
  EXPECT_NE(validation_message(sc).find("duration must be > 0"),
            std::string::npos);
}

TEST(ScenarioValidation, RejectsNonPositiveBaseRtt) {
  Scenario sc;
  sc.base_rtt = kTimeZero;
  EXPECT_NE(validation_message(sc).find("base_rtt must be > 0"),
            std::string::npos);
}

TEST(ScenarioValidation, RejectsTcpStartAfterStop) {
  Scenario sc;
  sc.tcp_start = 200_sec;
  sc.tcp_stop = 100_sec;
  const std::string msg = validation_message(sc);
  EXPECT_NE(msg.find("tcp_start"), std::string::npos) << msg;
  EXPECT_NE(msg.find("must be before tcp_stop"), std::string::npos) << msg;
}

TEST(ScenarioValidation, RejectsZeroLengthTcpSchedule) {
  // tcp_start == tcp_stop describes a flow that never sends; reject it
  // rather than silently running a misconfigured experiment.
  Scenario sc;
  sc.tcp_start = 185_sec;
  sc.tcp_stop = 185_sec;
  const std::string msg = validation_message(sc);
  EXPECT_NE(msg.find("tcp_start"), std::string::npos) << msg;
  EXPECT_NE(msg.find("must be before tcp_stop"), std::string::npos) << msg;
}

TEST(ScenarioValidation, RejectsNegativeTcpStart) {
  Scenario sc;
  sc.tcp_start = Time(-1);
  const std::string msg = validation_message(sc);
  EXPECT_NE(msg.find("tcp_start"), std::string::npos) << msg;
  EXPECT_NE(msg.find("must be >= 0"), std::string::npos) << msg;
}

TEST(ScenarioValidation, RejectsTcpStopPastDuration) {
  Scenario sc;
  sc.duration = 100_sec;
  sc.tcp_start = 10_sec;
  sc.tcp_stop = 200_sec;
  const std::string msg = validation_message(sc);
  EXPECT_NE(msg.find("tcp_stop"), std::string::npos) << msg;
  EXPECT_NE(msg.find("must not exceed duration"), std::string::npos) << msg;
}

TEST(ScenarioValidation, TcpScheduleIgnoredWithoutCompetingFlow) {
  // A solo (no-TCP) scenario with a short duration must not trip over the
  // default 370 s tcp_stop.
  Scenario sc;
  sc.tcp_algo.reset();
  sc.duration = 5_sec;
  EXPECT_EQ(validation_message(sc), "");
}

TEST(ScenarioValidation, RejectsInvalidImpairmentWithDirection) {
  Scenario sc;
  sc.impair_down.loss_rate = 7.0;
  const std::string down = validation_message(sc);
  EXPECT_NE(down.find("impair_down"), std::string::npos) << down;

  Scenario sc2;
  sc2.impair_up.jitter = Time(-5);
  const std::string up = validation_message(sc2);
  EXPECT_NE(up.find("impair_up"), std::string::npos) << up;
}

TEST(ScenarioValidation, RejectsDuplicateFlowIds) {
  Scenario sc;
  FlowSpec a = FlowSpec::game_stream();
  a.id = 7;
  FlowSpec b = FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, 10_sec, 100_sec);
  b.id = 7;
  sc.flows = {a, b};
  const std::string msg = validation_message(sc);
  EXPECT_NE(msg.find("flows[1].id"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicates flow id 7"), std::string::npos) << msg;
}

TEST(ScenarioValidation, RejectsBadFlowSchedule) {
  Scenario sc;
  sc.flows = {FlowSpec::game_stream(),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, Time(-5), 100_sec)};
  EXPECT_NE(validation_message(sc).find("flows[1].start must be >= 0"),
            std::string::npos);

  sc.flows[1] = FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, 100_sec, 100_sec);
  EXPECT_NE(validation_message(sc).find("flows[1].stop"), std::string::npos);

  sc.duration = 370_sec;
  sc.flows[1] = FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, 10_sec, 500_sec);
  const std::string msg = validation_message(sc);
  EXPECT_NE(msg.find("flows[1].stop"), std::string::npos) << msg;
  EXPECT_NE(msg.find("must not exceed duration"), std::string::npos) << msg;
}

TEST(ScenarioValidation, RejectsNegativeFlowExtraOwd) {
  Scenario sc;
  FlowSpec g = FlowSpec::game_stream();
  g.extra_owd = Time(-1);
  sc.flows = {g};
  EXPECT_NE(validation_message(sc).find("flows[0].extra_owd must be >= 0"),
            std::string::npos);
}

TEST(ScenarioValidation, RejectsBadPerFlowImpairment) {
  Scenario sc;
  FlowSpec g = FlowSpec::game_stream();
  net::ImpairmentConfig bad;
  bad.loss_rate = 7.0;
  g.impair_up = bad;
  sc.flows = {g};
  EXPECT_NE(validation_message(sc).find("flows[0].impair_up"),
            std::string::npos);
}

TEST(ScenarioValidation, ScalarScheduleIgnoredWithExplicitFlows) {
  // Once an explicit mix is given, the legacy scalar tcp_* fields are inert
  // and must not be validated against.
  Scenario sc;
  sc.tcp_start = 200_sec;
  sc.tcp_stop = 100_sec;  // would be rejected in scalar mode
  sc.flows = {FlowSpec::game_stream(),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kBbr, 30_sec, 300_sec)};
  EXPECT_EQ(validation_message(sc), "");
}

TEST(ScenarioValidation, TestbedConstructionValidates) {
  Scenario sc;
  sc.capacity = Bandwidth(-1);
  EXPECT_THROW(Testbed bed(sc), std::invalid_argument);
}

TEST(ScenarioValidation, TopologyErrorsNameTheOffendingLinkField) {
  Scenario sc;
  sc.topology = net::TopologySpec::parking_lot(3, 25_mbps, 1_ms);

  sc.topology.links[1].rate = Bandwidth(0);
  EXPECT_NE(validation_message(sc).find("topology.links[1].rate must be > 0"),
            std::string::npos);
  sc.topology.links[1].rate = 25_mbps;

  sc.topology.links[2].queue_bdp_mult = -1.0;
  EXPECT_NE(validation_message(sc).find(
                "topology.links[2].queue_bdp_mult must be > 0"),
            std::string::npos);
  sc.topology.links[2].queue_bdp_mult.reset();

  sc.topology.links[0].queue_bytes = ByteSize(0);
  EXPECT_NE(
      validation_message(sc).find("topology.links[0].queue_bytes must be > 0"),
      std::string::npos);
  sc.topology.links[0].queue_bytes.reset();

  net::ImpairmentConfig bad;
  bad.loss_rate = 7.0;
  sc.topology.links[1].impair = bad;
  EXPECT_NE(validation_message(sc).find("topology.links[1].impair"),
            std::string::npos);
  sc.topology.links[1].impair.reset();

  EXPECT_EQ(validation_message(sc), "");
}

TEST(ScenarioValidation, TopologyRejectsUnsortedRateSchedules) {
  Scenario sc;
  sc.topology = net::TopologySpec::parking_lot(2, 25_mbps, 1_ms);
  sc.topology.links[0].rate_schedule = {{10_sec, 10_mbps}, {5_sec, 25_mbps}};
  EXPECT_NE(validation_message(sc).find(
                "topology.links[0].rate_schedule[1].at must be non-decreasing"),
            std::string::npos);
  sc.topology.links[0].rate_schedule = {{5_sec, Bandwidth(0)}};
  EXPECT_NE(validation_message(sc).find(
                "topology.links[0].rate_schedule[0].rate must be > 0"),
            std::string::npos);
}

TEST(ScenarioValidation, TopologyRejectsDuplicateAndUnknownLinkNames) {
  Scenario sc;
  sc.topology = net::TopologySpec::parking_lot(2, 25_mbps, 1_ms);
  sc.topology.links[1].name = "hop0";
  EXPECT_NE(validation_message(sc).find("duplicates link name 'hop0'"),
            std::string::npos);

  sc.topology = net::TopologySpec::parking_lot(2, 25_mbps, 1_ms);
  sc.topology.default_down = {"hop0", "hopX"};
  EXPECT_NE(validation_message(sc).find(
                "topology.default_down references unknown link 'hopX'"),
            std::string::npos);

  sc.topology = net::TopologySpec::parking_lot(2, 25_mbps, 1_ms);
  sc.topology.paths.push_back({1, {"nope"}, {}});
  EXPECT_NE(validation_message(sc).find(
                "topology.paths[0].down references unknown link 'nope'"),
            std::string::npos);
}

TEST(ScenarioValidation, TopologyRejectsScalarImpairDownCombination) {
  Scenario sc;
  sc.topology = net::TopologySpec::single_bottleneck(25_mbps, 1_ms);
  sc.impair_down.loss_rate = 0.01;
  EXPECT_NE(validation_message(sc).find("impair_down cannot be combined"),
            std::string::npos);
}

TEST(ScenarioValidation, TopologyRejectsInfeasibleRttPadding) {
  // Propagation across the hops exceeding base_rtt leaves no room for the
  // access pads — the scenario must be rejected up front.
  Scenario sc;
  sc.topology =
      net::TopologySpec::parking_lot(3, 25_mbps, std::chrono::milliseconds(4));
  EXPECT_NE(validation_message(sc).find("base_rtt"), std::string::npos);

  // One cell, both spellings: the synthesized single bottleneck and the
  // same graph given explicitly get one rule and one message.
  Scenario implicit;
  implicit.base_rtt = 1_ms;
  Scenario explicit_form = implicit;
  explicit_form.topology = net::TopologySpec::single_bottleneck(
      implicit.capacity, kBottleneckProp);
  for (const Scenario& cell : {implicit, explicit_form}) {
    const std::string msg = validation_message(cell);
    EXPECT_NE(msg.find("base_rtt (0.001 s) is too small for flow 1"),
              std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace cgs::core
