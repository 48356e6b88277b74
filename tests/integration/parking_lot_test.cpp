// Parking-lot topology end-to-end: multi-bottleneck scenarios through the
// full Testbed -> collectors -> aggregate -> sweep/journal spine, with the
// conservation and fairness sanity checks the single-bottleneck testbed
// never needed (per-hop occupancy bounds, per-link drop accounting,
// hop-local congestion, cross-traffic fairness per hop).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "tools/grids.hpp"

namespace cgs::core {
namespace {

using namespace std::chrono;

/// Fast 3-hop lot: cross traffic on every hop from t=5 s.
ParkingLotParams quick_lot(std::uint64_t seed = 3) {
  ParkingLotParams p;
  p.hops = 3;
  p.duration = seconds(30);
  p.tcp_start = seconds(5);
  p.tcp_stop = seconds(25);
  p.seed = seed;
  return p;
}

double mean_over(const RunTrace& t, const std::vector<double>& series,
                 Time from, Time to) {
  return t.mean_bitrate_mbps(series, from, to);
}

/// End-of-run value of a boundary-indexed cumulative counter series.
/// The series carries n_buckets + 1 boundary slots but the sampler's last
/// firing lands on the penultimate boundary (a legacy collectors quirk kept
/// for golden bit-identity), so the final written count lives at size()-2.
std::uint64_t final_count(const std::vector<std::uint64_t>& s) {
  return s.size() >= 2 ? s[s.size() - 2] : 0;
}

TEST(ParkingLot, RunsEndToEndWithPerLinkSeries) {
  Scenario sc = parking_lot_scenario(quick_lot());
  sc.audit = Scenario::AuditMode::kOn;
  Testbed bed(sc);
  EXPECT_EQ(bed.topology().link_count(), 3u);
  const RunTrace t = bed.run();

  ASSERT_EQ(t.links.size(), 3u);
  EXPECT_EQ(t.links[0].name, "hop0");
  EXPECT_EQ(t.links[2].name, "hop2");
  ASSERT_NE(t.link("hop1"), nullptr);
  EXPECT_EQ(t.link("nope"), nullptr);

  // The game stream crossed all three hops and delivered.
  EXPECT_GT(mean_over(t, t.game_mbps(), seconds(10), seconds(25)), 1.0);
  // Every hop carried at least the end-to-end game traffic mid-run.
  for (const LinkTrace& l : t.links) {
    EXPECT_GT(mean_over(t, l.util_mbps, seconds(10), seconds(25)), 1.0)
        << l.name;
  }
}

TEST(ParkingLot, QueueOccupancyStaysWithinEachHopsCapacity) {
  ParkingLotParams p = quick_lot(5);
  p.queue_bdp_mult = 0.5;  // shallow queues: the bound actually binds
  Scenario sc = parking_lot_scenario(p);
  sc.audit = Scenario::AuditMode::kOn;  // event-granularity bound check
  Testbed bed(sc);
  const RunTrace t = bed.run();

  ASSERT_EQ(t.links.size(), bed.topology().link_count());
  for (std::size_t i = 0; i < t.links.size(); ++i) {
    const auto cap = std::uint64_t(bed.topology().queue_capacity(i).bytes());
    for (std::uint64_t depth : t.links[i].depth_bytes) {
      ASSERT_LE(depth, cap) << t.links[i].name;
    }
  }
}

TEST(ParkingLot, PerLinkDropAccountingSumsToRunTotals) {
  ParkingLotParams p = quick_lot(7);
  p.queue_bdp_mult = 0.5;  // force drops
  Scenario sc = parking_lot_scenario(p);
  sc.audit = Scenario::AuditMode::kOn;
  Testbed bed(sc);
  const RunTrace t = bed.run();

  ASSERT_FALSE(t.queue_drops().empty());
  std::uint64_t per_link_total = 0;
  for (const LinkTrace& l : t.links) {
    ASSERT_FALSE(l.drops.empty());
    per_link_total += final_count(l.drops);
  }
  EXPECT_EQ(per_link_total, final_count(t.queue_drops()));
  EXPECT_GT(per_link_total, 0u);  // the shallow queues really dropped
}

TEST(ParkingLot, CongestionStaysLocalToTheLoadedHop) {
  // Cross traffic on the interior hop only: hop1 must congest while the
  // edge hops carry the same end-to-end flows without pressure.
  ParkingLotParams p = quick_lot(11);
  p.cross_per_hop = 0;
  p.queue_bdp_mult = 1.0;
  Scenario sc = parking_lot_scenario(p);
  FlowSpec cross = FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, seconds(5),
                                      seconds(25));
  cross.id = 50;
  cross.name = "x1_only";
  sc.flows.push_back(std::move(cross));
  sc.topology.paths.push_back({50, {"hop1"}, {}});
  sc.audit = Scenario::AuditMode::kOn;

  Testbed bed(sc);
  const RunTrace t = bed.run();
  const LinkTrace* hop0 = t.link("hop0");
  const LinkTrace* hop1 = t.link("hop1");
  const LinkTrace* hop2 = t.link("hop2");
  ASSERT_TRUE(hop0 && hop1 && hop2);

  // The loaded hop carries strictly more than the pass-through hops...
  const double u0 = mean_over(t, hop0->util_mbps, seconds(10), seconds(25));
  const double u1 = mean_over(t, hop1->util_mbps, seconds(10), seconds(25));
  EXPECT_GT(u1, u0 + 1.0);
  // ...queues deeper than both edges...
  const auto peak = [](const LinkTrace& l) {
    return *std::max_element(l.depth_bytes.begin(), l.depth_bytes.end());
  };
  EXPECT_GT(peak(*hop1), peak(*hop0));
  EXPECT_GT(peak(*hop1), peak(*hop2));
  // ...and owns the overwhelming share of the run's drops (the bursty
  // game-frame ingress may shed a handful at the access hop).  Per-link
  // accounting must still sum exactly to the run total.
  const std::uint64_t d0 = final_count(hop0->drops);
  const std::uint64_t d1 = final_count(hop1->drops);
  const std::uint64_t d2 = final_count(hop2->drops);
  EXPECT_EQ(d0 + d1 + d2, final_count(t.queue_drops()));
  EXPECT_GT(d1, 4 * (d0 + d2));
}

TEST(ParkingLot, CrossTrafficSharesEachHopFairly) {
  // Two same-algo cross flows per hop with identical paths must split
  // their hop's spare capacity about evenly (Jain over the active window).
  ParkingLotParams p = quick_lot(13);
  p.cross_per_hop = 2;
  p.duration = seconds(60);
  p.tcp_stop = seconds(55);
  Scenario sc = parking_lot_scenario(p);
  sc.audit = Scenario::AuditMode::kOn;
  Testbed bed(sc);
  const RunTrace t = bed.run();

  for (std::size_t hop = 0; hop < 3; ++hop) {
    std::vector<double> rates;
    for (std::size_t c = 0; c < 2; ++c) {
      const std::string name =
          "x" + std::to_string(hop) + "_" + std::to_string(c);
      const FlowTrace* f = nullptr;
      for (const FlowTrace& ft : t.flows) {
        if (ft.name == name) f = &ft;
      }
      ASSERT_NE(f, nullptr) << name;
      rates.push_back(mean_over(t, f->mbps, seconds(25), seconds(55)));
    }
    const double sum = rates[0] + rates[1];
    const double sumsq = rates[0] * rates[0] + rates[1] * rates[1];
    ASSERT_GT(sum, 0.0) << "hop" << hop;
    const double jain = sum * sum / (2.0 * sumsq);
    EXPECT_GT(jain, 0.75) << "hop" << hop << ": " << rates[0] << " vs "
                          << rates[1];
  }
}

TEST(ParkingLot, BbrCubicMeleeSharesTheThreeHopPath) {
  // N-BBR vs N-Cubic end-to-end melee over the full lot, with per-hop
  // cross traffic underneath: every participant must get goodput and no
  // hop may deliver beyond its capacity.
  ParkingLotParams p = quick_lot(17);
  p.bbr_flows = 2;
  p.cubic_flows = 2;
  p.duration = seconds(40);
  p.tcp_stop = seconds(35);
  Scenario sc = parking_lot_scenario(p);
  sc.audit = Scenario::AuditMode::kOn;
  Testbed bed(sc);
  const RunTrace t = bed.run();

  for (const char* name : {"bbr0", "bbr1", "cubic0", "cubic1"}) {
    const FlowTrace* f = nullptr;
    for (const FlowTrace& ft : t.flows) {
      if (ft.name == name) f = &ft;
    }
    ASSERT_NE(f, nullptr) << name;
    EXPECT_GT(mean_over(t, f->mbps, seconds(15), seconds(35)), 0.05) << name;
  }
  // The game stream crossed the melee and still delivered.
  EXPECT_GT(mean_over(t, t.game_mbps(), seconds(15), seconds(35)), 0.5);
  // Per-hop deliveries never exceed the hop's capacity (small slack for
  // bucket-boundary rounding).
  for (const LinkTrace& l : t.links) {
    for (double u : l.util_mbps) {
      ASSERT_LE(u, 25.0 * 1.05) << l.name;
    }
  }
}

TEST(ParkingLot, GridCellFillsEveryWindowedColumn) {
  // A `tools/sweep --grid=parkinglot` cell (30 s, TCP over [5, 20)).  Its
  // windows come from its own schedule; windows fixed to the paper's 555 s
  // schedule would leave every one of these fields 0 and the recovery at
  // 185 s.
  const SweepCell cell = tools::parkinglot_grid(42).at(1);  // 0.5x melee
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  const ConditionResult r = run_sweep({cell}, opts).results.at(0);
  EXPECT_GT(r.rtt_mean_ms, 0.0);
  EXPECT_GT(r.fps_mean, 0.0);
  EXPECT_GT(r.steady_mean_mbps, 0.0);
  EXPECT_GT(r.jain_mean, 0.0);
  EXPECT_GT(r.game_fair_mbps, 0.0);
  ASSERT_EQ(r.link_rows.size(), 3u);
  for (const LinkSummaryRow& l : r.link_rows) {
    EXPECT_GT(l.util_fair_mean, 0.0) << l.name;
  }
  EXPECT_LE(r.rr.recovery_s, 10.0);  // duration - tcp_stop
}

TEST(ParkingLot, SweepJournalReplayRoundTripCarriesLinkSeries) {
  ParkingLotParams p = quick_lot(19);
  p.duration = seconds(12);
  p.tcp_start = seconds(2);
  p.tcp_stop = seconds(10);
  const Scenario sc = parking_lot_scenario(p);

  const std::string journal =
      ::testing::TempDir() + "cgs_parking_lot_roundtrip.jnl";
  std::remove(journal.c_str());

  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  const SweepResult swept = run_sweep({{"lot", sc}}, opts);
  EXPECT_EQ(swept.report.failures.size(), 0u);

  // The aggregate carries one digest row per hop.
  ASSERT_EQ(swept.results.size(), 1u);
  ASSERT_EQ(swept.results[0].link_rows.size(), 3u);
  EXPECT_EQ(swept.results[0].link_rows[1].name, "hop1");

  const auto scan = read_journal(journal);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->entries.size(), 2u);
  for (const JournalEntry& e : scan->entries) {
    ASSERT_TRUE(e.ok);
    // The journaled payload round-trips with its per-link series intact.
    const RunTrace back = deserialize_trace(e.payload.data(),
                                            e.payload.size());
    ASSERT_EQ(back.links.size(), 3u);
    EXPECT_EQ(back.links[2].name, "hop2");
    EXPECT_EQ(trace_hash(back), e.trace_hash);

    // A fresh single-threaded re-run of the journaled job reproduces the
    // journal bytes exactly (the replay tool's contract).
    Scenario replay_sc = sc;
    replay_sc.seed = e.seed;
    replay_sc.audit = Scenario::AuditMode::kOn;
    Testbed bed(replay_sc);
    EXPECT_EQ(serialize_trace(bed.run()), e.payload) << "seed " << e.seed;
  }
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace cgs::core
