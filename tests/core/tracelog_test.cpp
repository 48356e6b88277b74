#include "core/tracelog.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "net/queue.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;

class NullSink final : public net::PacketSink {
 public:
  void handle_packet(net::PacketPtr) override {}
};

struct LinkRig {
  sim::Simulator sim;
  net::PacketFactory factory;
  NullSink sink;
  net::Link link{sim, "l", 12_mbps, 1_ms,
                 std::make_unique<net::DropTailQueue>(ByteSize(4500)), &sink};

  void send(net::FlowId flow, std::int32_t size) {
    link.handle_packet(factory.make(flow, net::TrafficClass::kTcpData, size,
                                    sim.now(), {}));
  }
};

TEST(TraceLog, RecordsDeliveriesAndDrops) {
  LinkRig rig;
  TraceLog log;
  log.attach(rig.link);
  for (int i = 0; i < 6; ++i) rig.send(1, 1500);  // queue holds 3 + 1 tx
  rig.sim.run();
  std::uint64_t delivers = 0, drops = 0;
  for (const auto& r : log.records()) {
    if (r.event == TraceEvent::kDeliver) ++delivers;
    if (r.event == TraceEvent::kDrop) ++drops;
  }
  EXPECT_EQ(delivers + drops, 6u);
  EXPECT_GT(drops, 0u);
}

TEST(TraceLog, EventMaskSelectsTapPoints) {
  LinkRig rig;
  TraceLog log(1u << unsigned(TraceEvent::kArrival));
  log.attach(rig.link);
  rig.send(1, 1000);
  rig.sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].event, TraceEvent::kArrival);
}

TEST(TraceLog, SummarizePerFlow) {
  LinkRig rig;
  TraceLog log;
  log.attach(rig.link);
  // Interleave two flows, spaced so nothing drops.
  for (int i = 0; i < 10; ++i) {
    rig.sim.schedule_at(10_ms * i, [&rig, i] {
      rig.send(i % 2 == 0 ? 1 : 2, 1200);
    });
  }
  rig.sim.run();
  const auto flows = log.summarize();
  ASSERT_EQ(flows.size(), 2u);
  for (const auto& f : flows) {
    EXPECT_EQ(f.packets_delivered, 5u);
    EXPECT_EQ(f.bytes_delivered, 5 * 1200);
    EXPECT_EQ(f.packets_dropped, 0u);
    EXPECT_DOUBLE_EQ(f.drop_rate(), 0.0);
    EXPECT_GT(f.goodput().bits_per_sec(), 0);
    // Perfectly periodic deliveries: jitter ~ 0.
    EXPECT_LT(f.jitter, 1_ms);
  }
}

TEST(TraceLog, SummaryWindowFilters) {
  LinkRig rig;
  TraceLog log;
  log.attach(rig.link);
  for (int i = 0; i < 10; ++i) {
    rig.sim.schedule_at(10_ms * i, [&rig] { rig.send(1, 1200); });
  }
  rig.sim.run();
  const auto all = log.summarize();
  const auto half = log.summarize(kTimeZero, 50_ms);
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(half.size(), 1u);
  EXPECT_LT(half[0].packets_delivered, all[0].packets_delivered);
}

TEST(TraceLog, CsvRoundTrip) {
  LinkRig rig;
  TraceLog log;
  log.attach(rig.link);
  rig.send(7, 999);
  rig.sim.run();
  const std::string path = ::testing::TempDir() + "/trace.csv";
  log.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "t_s,event,flow,class,size_bytes,uid");
  EXPECT_NE(row.find("deliver"), std::string::npos);
  EXPECT_NE(row.find("999"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceLog, DropRateComputation) {
  FlowSummary s;
  s.packets_delivered = 90;
  s.packets_dropped = 10;
  EXPECT_DOUBLE_EQ(s.drop_rate(), 0.1);
  FlowSummary empty;
  EXPECT_DOUBLE_EQ(empty.drop_rate(), 0.0);
  EXPECT_TRUE(empty.goodput().is_zero());
}

}  // namespace
}  // namespace cgs::core
