// Invariant auditor: it must observe without perturbing (bit-identical
// traces audited or not), pass on healthy runs, and trip loudly — with
// classified, contextual errors — when the packet accounting books don't
// balance.
#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/journal.hpp"
#include "core/testbed.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace cgs::core {
namespace {

using namespace std::chrono;

Scenario quick_scenario(std::uint64_t seed = 100) {
  Scenario sc;
  sc.duration = seconds(2);
  sc.tcp_start = milliseconds(500);
  sc.tcp_stop = milliseconds(1500);
  sc.seed = seed;
  return sc;
}

TEST(Audit, HealthyRunPassesWithChecksActuallyExecuted) {
  Scenario sc = quick_scenario(1);
  sc.audit = Scenario::AuditMode::kOn;
  Testbed bed(sc);
  ASSERT_NE(bed.auditor(), nullptr);
  (void)bed.run();  // would throw InvariantViolation on any trip
  EXPECT_GT(bed.auditor()->checks_run(), 0u);
  EXPECT_GT(bed.auditor()->arrived_bytes().bytes(), 0);
  // Conservation held at the end: everything arrived was settled.
  EXPECT_EQ(bed.auditor()->arrived_bytes().bytes(),
            bed.auditor()->dropped_bytes().bytes() +
                bed.auditor()->transmitted_bytes().bytes());
}

TEST(Audit, ModeSelectsPresence) {
  Scenario off = quick_scenario(1);
  off.audit = Scenario::AuditMode::kOff;
  EXPECT_EQ(Testbed(off).auditor(), nullptr);

  Scenario aut = quick_scenario(1);
  aut.audit = Scenario::AuditMode::kAuto;
  Testbed bed(aut);
#ifdef NDEBUG
  EXPECT_EQ(bed.auditor(), nullptr);  // Release: bench numbers stay clean
#else
  EXPECT_NE(bed.auditor(), nullptr);  // Debug: every test run is audited
#endif
}

TEST(Audit, ObserverOnlyTracesBitIdentical) {
  Scenario on = quick_scenario(33);
  on.audit = Scenario::AuditMode::kOn;
  Scenario off = quick_scenario(33);
  off.audit = Scenario::AuditMode::kOff;
  Testbed bed_on(on);
  Testbed bed_off(off);
  EXPECT_EQ(trace_hash(bed_on.run()), trace_hash(bed_off.run()));
}

TEST(Audit, PassesUnderImpairmentWithSequenceCheckGated) {
  // Downstream jitter + reordering legitimately breaks RTP monotonicity at
  // the bottleneck; the testbed must gate that check off, and the
  // conservation checks must still pass.
  Scenario sc = quick_scenario(55);
  sc.audit = Scenario::AuditMode::kOn;
  sc.impair_down.loss_rate = 0.02;
  sc.impair_down.jitter = milliseconds(3);
  sc.impair_down.allow_reorder = true;
  Testbed bed(sc);
  ASSERT_NE(bed.auditor(), nullptr);
  (void)bed.run();
  EXPECT_GT(bed.auditor()->checks_run(), 0u);
}

/// Forged-event harness: a bare Link + auditor where the test plays the
/// role of a buggy component by calling the auditor's observer hooks
/// directly with books that cannot balance.
struct ForgeRig {
  sim::Simulator sim;
  net::Link link;
  SimAuditor auditor;

  struct NullSink final : net::PacketSink {
    void handle_packet(net::PacketPtr) override {}
  };
  static NullSink sink;

  explicit ForgeRig(SimAuditor::Options opts = {})
      : link(sim, "forged", Bandwidth::mbps(10.0), milliseconds(1),
             std::make_unique<net::DropTailQueue>(ByteSize(30'000)), &sink),
        auditor(std::move(opts)) {
    auditor.attach(link);
  }

  net::Packet packet(net::FlowId flow, std::int32_t size) const {
    net::Packet p;
    p.uid = 1;
    p.flow = flow;
    p.size_bytes = size;
    return p;
  }
};

ForgeRig::NullSink ForgeRig::sink;

TEST(Audit, TransmitWithoutArrivalTripsConservation) {
  // The message is the failure's only record (journal, failure CSV,
  // triage table), so its whole text is pinned: no cell or seed here, so
  // both are left out, and the trip's sim-time and flow are written.
  ForgeRig rig;
  const net::Packet p = rig.packet(7, 1200);
  try {
    rig.auditor.on_transmit(p, milliseconds(5));
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(classify(e), ErrorClass::kInvariant);
    EXPECT_STREQ(e.what(),
                 "[invariant] t=0.005s flow 7: flow accounting: dropped (0) "
                 "+ transmitted (1200) exceeds arrived (0) bytes");
  }
}

TEST(Audit, DropExceedingArrivalsTripsFlowSanity) {
  ForgeRig rig;
  const net::Packet p = rig.packet(3, 800);
  EXPECT_THROW(rig.auditor.on_drop(p, net::DropReason::kOverflow, Time{}),
               InvariantViolation);
}

TEST(Audit, FinalCheckCatchesVanishedBytes) {
  // A packet "arrives" but is never dropped, transmitted, or queued — the
  // end-of-run settlement must notice the leak.  The message names the
  // auditor's cell and seed; an end-of-run check has no time or flow.
  SimAuditor::Options opts;
  opts.cell_label = "Stadia 25Mb/s 2xBDP vs cubic";
  opts.seed = 44;
  ForgeRig rig(opts);
  const net::Packet p = rig.packet(2, 500);
  rig.auditor.on_arrival(p, Time{});
  try {
    rig.auditor.final_check();
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.what(),
                 "[invariant] cell 'Stadia 25Mb/s 2xBDP vs cubic' seed 44: "
                 "end-of-run byte conservation: residual 500 bytes vs queue "
                 "occupancy 0");
  }
}

TEST(Audit, NonPositivePacketSizeTrips) {
  ForgeRig rig;
  const net::Packet p = rig.packet(1, 0);
  EXPECT_THROW(rig.auditor.on_arrival(p, Time{}), InvariantViolation);
}

}  // namespace
}  // namespace cgs::core
