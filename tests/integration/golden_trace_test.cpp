// Golden same-seed traces: the paper-default scenario, and two mixes whose
// two-flow views are derived from several flows and links, must produce
// bit-identical RunTrace series across refactors of the
// scenario -> testbed -> collectors spine.  The constants below were
// captured with tools/golden_dump.cpp; if a change legitimately alters
// the simulation (new RNG draws, different event order), regenerate them
// with that tool and justify the break in the commit message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"

namespace cgs::core {
namespace {

using namespace std::chrono;

// The shared golden hasher (core/journal.hpp) — the exact function the
// sweep journal stamps on every record, so journaled hashes are directly
// comparable to the constants below.
std::uint64_t hash_trace(const RunTrace& t) { return trace_hash(t); }

struct GoldenCell {
  const char* name;
  stream::GameSystem sys;
  std::optional<tcp::CcAlgo> cc;
  std::uint64_t seed;
  std::uint64_t trace_hash;
};

// Captured from the pre-refactor (scalar-only) testbed; see file comment.
const GoldenCell kCells[] = {
    {"stadia_cubic", stream::GameSystem::kStadia, tcp::CcAlgo::kCubic, 1,
     0x058c4966df7104a9ULL},
    {"geforce_bbr", stream::GameSystem::kGeForce, tcp::CcAlgo::kBbr, 11,
     0x77398256f15628cfULL},
    {"luna_solo", stream::GameSystem::kLuna, std::nullopt, 5,
     0x7ba4077b404e8f04ULL},
};

Scenario scalar_scenario(const GoldenCell& c) {
  Scenario sc;
  sc.system = c.sys;
  sc.tcp_algo = c.cc;
  sc.duration = seconds(90);
  sc.tcp_start = seconds(30);
  sc.tcp_stop = seconds(60);
  sc.seed = c.seed;
  return sc;
}

TEST(GoldenTrace, ScalarScenarioMatchesPreRefactorHashes) {
  for (const GoldenCell& c : kCells) {
    Testbed bed(scalar_scenario(c));
    EXPECT_EQ(hash_trace(bed.run()), c.trace_hash) << c.name;
  }
}

// Mixes beyond the paper's default, where a two-flow view is not one
// flow's series: a TCP-only 3-hop parking lot (zero game views, a TCP sum
// over five flows, drops summed over three links) and one bottleneck
// shared by two game streams, two bulk-TCP flows and ping.  The trace
// hashes were captured while RunTrace still stored the views; the payload
// hash covers every section of the serialized (journal v4) trace.
struct GoldenMix {
  const char* name;
  Scenario (*make)();
  std::uint64_t trace_hash;
  std::uint64_t payload_hash;
};

Scenario tcp_only_lot() {
  ParkingLotParams p;
  p.hops = 3;
  p.game_flow = false;
  p.ping_flow = false;
  p.cubic_flows = 1;
  p.bbr_flows = 1;
  p.duration = seconds(30);
  p.tcp_start = seconds(5);
  p.tcp_stop = seconds(25);
  p.seed = 7;
  return parking_lot_scenario(p);
}

Scenario two_game_mix() {
  Scenario sc;
  sc.capacity = Bandwidth::mbps(50.0);
  sc.duration = seconds(40);
  sc.seed = 5;
  sc.flows = {FlowSpec::game_stream(stream::GameSystem::kStadia),
              FlowSpec::game_stream(stream::GameSystem::kLuna),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, seconds(10), seconds(30)),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kBbr, seconds(10), seconds(30)),
              FlowSpec::ping()};
  return sc;
}

const GoldenMix kMixes[] = {
    {"lot_tcp_only", tcp_only_lot, 0x5a7328fe14f25759ULL,
     0x6470e69a017c7eddULL},
    {"two_game_mix", two_game_mix, 0x5b115fd728de3573ULL,
     0xecef195e34efdd76ULL},
};

std::uint64_t payload_hash(const RunTrace& t) {
  const std::vector<unsigned char> bytes = serialize_trace(t);
  return fnv1a_bytes(1469598103934665603ULL, bytes.data(), bytes.size());
}

std::size_t count_kind(const RunTrace& t, FlowKind kind) {
  std::size_t n = 0;
  for (const FlowTrace& f : t.flows) n += f.kind == kind ? 1 : 0;
  return n;
}

TEST(GoldenTrace, DerivedViewMixesMatchPinnedBytes) {
  std::vector<RunTrace> traces;
  for (const GoldenMix& m : kMixes) {
    Testbed bed(m.make());
    const RunTrace& t = traces.emplace_back(bed.run());
    EXPECT_EQ(trace_hash(t), m.trace_hash) << m.name;
    EXPECT_EQ(payload_hash(t), m.payload_hash) << m.name;
  }

  // The pins cover what they claim only while the mixes keep their shape:
  // several bulk-TCP flows and dropping links for the sums, and a second
  // game stream that the primary-game views must ignore.
  const RunTrace& lot = traces[0];
  EXPECT_EQ(lot.game_flow(), nullptr);
  EXPECT_GE(count_kind(lot, FlowKind::kBulkTcp), 2u);
  ASSERT_EQ(lot.links.size(), 3u);
  std::size_t dropping_links = 0;
  for (const LinkTrace& l : lot.links) {
    dropping_links += *std::max_element(l.drops.begin(), l.drops.end()) > 0;
  }
  EXPECT_GE(dropping_links, 2u);
  EXPECT_EQ(lot.game_mbps(),
            std::vector<double>(lot.links[0].util_mbps.size(), 0.0));

  const RunTrace& mix = traces[1];
  EXPECT_EQ(count_kind(mix, FlowKind::kGameStream), 2u);
  EXPECT_EQ(count_kind(mix, FlowKind::kBulkTcp), 2u);
  EXPECT_EQ(count_kind(mix, FlowKind::kPing), 1u);
  EXPECT_EQ(mix.game_mbps(), mix.flows[0].mbps);
}

TEST(GoldenTrace, ExplicitPaperMixMatchesScalarSynthesis) {
  // Spelling the default mix out as FlowSpecs — with the historical ids —
  // must be indistinguishable from the scalar back-compat path.
  for (const GoldenCell& c : kCells) {
    Scenario sc = scalar_scenario(c);
    FlowSpec g = FlowSpec::game_stream();
    g.id = 1;
    g.name = "game";
    sc.flows.push_back(g);
    if (c.cc) {
      FlowSpec t = FlowSpec::bulk_tcp(*c.cc, seconds(30), seconds(60));
      t.id = 2;
      t.name = "tcp";
      sc.flows.push_back(t);
    }
    FlowSpec p = FlowSpec::ping();
    p.id = 3;
    p.name = "ping";
    sc.flows.push_back(p);

    Testbed bed(sc);
    EXPECT_EQ(hash_trace(bed.run()), c.trace_hash) << c.name;
    // One cell, one key: the journal cannot tell the spellings apart.
    EXPECT_EQ(sweep_fingerprint({{c.name, sc}}, 1),
              sweep_fingerprint({{c.name, scalar_scenario(c)}}, 1))
        << c.name;
  }
}

TEST(GoldenTrace, ExplicitSingleBottleneckTopologyMatchesScalarSynthesis) {
  // Spelling the paper's Figure-1 shape as an explicit one-link topology
  // must be indistinguishable from the scalar synthesis — same Link,
  // demux and queue-sizing construction, so byte-identical traces.
  for (const GoldenCell& c : kCells) {
    const Scenario scalar = scalar_scenario(c);
    Scenario topo = scalar;
    topo.topology =
        net::TopologySpec::single_bottleneck(scalar.capacity, kBottleneckProp);

    Testbed scalar_bed(scalar);
    Testbed topo_bed(topo);
    const auto scalar_bytes = serialize_trace(scalar_bed.run());
    const auto topo_bytes = serialize_trace(topo_bed.run());
    EXPECT_EQ(scalar_bytes, topo_bytes) << c.name;
    EXPECT_EQ(trace_hash(deserialize_trace(topo_bytes.data(),
                                           topo_bytes.size())),
              c.trace_hash)
        << c.name;
    EXPECT_EQ(sweep_fingerprint({{c.name, topo}}, 1),
              sweep_fingerprint({{c.name, scalar}}, 1))
        << c.name;
  }
}

TEST(GoldenTrace, TopologySpellingsJournalIdenticalBytesAtAnyThreadCount) {
  // Three spellings of the same stadia/cubic condition — scalar synthesis,
  // explicit FlowSpecs, explicit one-link topology — swept at 1/2/8
  // threads: every (cell, run) slot must journal the same payload bytes,
  // every spelling must journal the same trace as every other, and run 0
  // must still carry the pre-refactor golden hash.
  const GoldenCell& gold = kCells[0];
  const Scenario scalar = scalar_scenario(gold);

  Scenario flows = scalar;
  {
    FlowSpec g = FlowSpec::game_stream();
    g.id = 1;
    g.name = "game";
    flows.flows.push_back(g);
    FlowSpec t = FlowSpec::bulk_tcp(*gold.cc, seconds(30), seconds(60));
    t.id = 2;
    t.name = "tcp";
    flows.flows.push_back(t);
    FlowSpec p = FlowSpec::ping();
    p.id = 3;
    p.name = "ping";
    flows.flows.push_back(p);
  }

  Scenario topo = scalar;
  topo.topology =
      net::TopologySpec::single_bottleneck(scalar.capacity, kBottleneckProp);

  const std::vector<SweepCell> cells = {
      {"scalar", scalar}, {"flows", flows}, {"topo", topo}};
  constexpr int kRuns = 2;

  std::vector<std::vector<JournalEntry>> slots_by_threads;
  for (const int threads : {1, 2, 8}) {
    const std::string journal = ::testing::TempDir() +
                                "cgs_golden_topology_t" +
                                std::to_string(threads) + ".jnl";
    std::remove(journal.c_str());
    SweepOptions opts;
    opts.runs = kRuns;
    opts.threads = threads;
    opts.journal_path = journal;
    opts.journal_sync = false;
    const SweepResult swept = run_sweep(cells, opts);
    EXPECT_EQ(swept.report.failures.size(), 0u) << "threads=" << threads;

    const auto scan = read_journal(journal);
    ASSERT_TRUE(scan.has_value());
    ASSERT_EQ(scan->entries.size(), cells.size() * kRuns);
    std::vector<JournalEntry> slots(scan->entries.size());
    for (const JournalEntry& e : scan->entries) {
      slots[e.cell * kRuns + e.run] = e;
    }
    slots_by_threads.push_back(std::move(slots));
    std::remove(journal.c_str());
  }

  const auto& ref = slots_by_threads.front();
  for (std::size_t s = 0; s < ref.size(); ++s) {
    ASSERT_TRUE(ref[s].ok) << "slot " << s;
    // Thread-count independence: identical journal bytes per slot.
    for (std::size_t v = 1; v < slots_by_threads.size(); ++v) {
      EXPECT_EQ(slots_by_threads[v][s].trace_hash, ref[s].trace_hash)
          << "slot " << s;
      EXPECT_EQ(slots_by_threads[v][s].payload, ref[s].payload)
          << "slot " << s;
    }
    // Spelling independence: cells 1 and 2 match cell 0 run-for-run.
    EXPECT_EQ(ref[s].payload, ref[s % kRuns].payload) << "slot " << s;
  }
  // The pre-refactor pin: run 0 of every spelling is the golden seed.
  EXPECT_EQ(ref[0].trace_hash, gold.trace_hash);
}

}  // namespace
}  // namespace cgs::core
