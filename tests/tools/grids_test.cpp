// The grid registry (tools/grids.hpp) is what the benches, journals,
// tools/sweep and tools/replay agree on.  These tests pin its shape: every
// registered grid builds; its labels are unique, because renderers,
// replay --cell and failure triage find cells by label; and every cell
// validates.  The fingerprints of fig3, table3, table4, smoke, sick,
// poison, parkinglot and fleet are pinned as literals, so an edit that
// would orphan their existing journals fails here.
#include "tools/grids.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace cgs::tools {
namespace {

using core::FlowKind;

TEST(Grids, EveryGridBuildsValidCellsWithUniqueLabels) {
  std::set<std::string> names;
  std::string usage;  // what grid_names() must print: every name, in order
  for (const NamedGrid& g : kGrids) {
    EXPECT_TRUE(names.insert(g.name).second) << "duplicate name " << g.name;
    usage += usage.empty() ? g.name : std::string("|") + g.name;
    for (const std::uint64_t seed : {42u, 7u}) {
      SCOPED_TRACE(std::string(g.name) + " seed " + std::to_string(seed));
      const auto cells = grid_by_name(g.name, seed);
      ASSERT_TRUE(cells.has_value());
      EXPECT_FALSE(cells->empty());
      std::set<std::string> labels;
      for (const SweepCell& c : *cells) {
        EXPECT_TRUE(labels.insert(c.label).second)
            << "duplicate label '" << c.label << "'";
        EXPECT_NO_THROW(c.scenario.validate()) << c.label;
      }
    }
  }
  EXPECT_EQ(names.size(), 17u);
  EXPECT_EQ(grid_names(), usage);
  EXPECT_FALSE(grid_by_name("no-such-grid", 42).has_value());
}

TEST(Grids, FingerprintsOfExistingGridsArePinned) {
  struct Pin {
    const char* name;
    std::uint64_t seed;
    int runs;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"fig3", 42, 1, 0xc8039d80c98cf1ebULL},
      {"fig3", 42, 5, 0x4d5f37356550b597ULL},
      {"fig3", 7, 1, 0x343850cff871e803ULL},
      {"fig3", 7, 5, 0xd0f71cce3e5829bfULL},
      {"table3", 42, 1, 0x8ba20cc6dbedc287ULL},
      {"table3", 42, 5, 0xc09a730dc114d773ULL},
      {"table3", 7, 1, 0xbeb79d4162d939d8ULL},
      {"table3", 7, 5, 0x0c32e78416cb1d6cULL},
      {"table4", 42, 1, 0xc8039d80c98cf1ebULL},
      {"table4", 42, 5, 0x4d5f37356550b597ULL},
      {"table4", 7, 1, 0x343850cff871e803ULL},
      {"table4", 7, 5, 0xd0f71cce3e5829bfULL},
      {"smoke", 42, 1, 0xc6e6afdd9c016976ULL},
      {"smoke", 42, 5, 0x709886399c38d82aULL},
      {"smoke", 7, 1, 0x5f499e6b19ed2756ULL},
      {"smoke", 7, 5, 0x9660ff982c09aa1aULL},
      {"sick", 42, 1, 0xf391f58dbe5e6721ULL},
      {"sick", 42, 5, 0x2f0aadec95dc4935ULL},
      {"sick", 7, 1, 0x6a4e7a0d760ff83fULL},
      {"sick", 7, 5, 0xce1185f3a4daf183ULL},
      {"poison", 42, 1, 0xd52067c6e9a92aedULL},
      {"poison", 42, 5, 0x4089690ff9fc2521ULL},
      {"poison", 7, 1, 0xfc7a1f4702527dc7ULL},
      {"poison", 7, 5, 0xc7b2a307fd10d7dbULL},
      {"parkinglot", 42, 1, 0xa0a7f531eae34636ULL},
      {"parkinglot", 42, 5, 0x3b8b483000d09c3aULL},
      {"parkinglot", 7, 1, 0x5976bcddef9bb4c2ULL},
      {"parkinglot", 7, 5, 0x8d7280139028b6d6ULL},
      {"fleet", 42, 1, 0x359febd4ee6aacd0ULL},
      {"fleet", 42, 5, 0xc45e8cf22260eef4ULL},
      {"fleet", 7, 1, 0x9878707281a20936ULL},
      {"fleet", 7, 5, 0xaae3be8edf7f013aULL},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(core::sweep_fingerprint(*grid_by_name(p.name, p.seed), p.runs),
              p.fingerprint)
        << p.name << " seed " << p.seed << " runs " << p.runs;
  }
}

TEST(Grids, ControllerVariantsDifferOnlyByLabelAndFingerprintApart) {
  // The variants' controller_override is a closure the fingerprint cannot
  // see, so the variant name in the label is what tells them apart.
  const std::vector<SweepCell> cells = controller_grid(42);
  std::set<std::uint64_t> fingerprints;
  for (const SweepCell& c : cells) {
    EXPECT_TRUE(c.scenario.controller_override) << c.label;
    fingerprints.insert(core::sweep_fingerprint({c}, 1));
  }
  EXPECT_EQ(fingerprints.size(), cells.size());
}

TEST(Grids, RepeatedCellsShareOneKey) {
  // A cell's key leaves its label out, so a cell that several grids run
  // has one key in all of them: harm repeats fig3 and table3 cells under
  // the same labels, fig2 is fig3's 25 Mb/s slice and aqm's drop-tail
  // cells are fig3 cells.  A controller variant's key carries its label.
  const auto key = [](const SweepCell& c) {
    const std::vector<unsigned char> k = core::cell_key(c);
    return std::string(k.begin(), k.end());
  };
  std::map<std::string, std::string> paper;  // fig3 and table3 keys by label
  std::set<std::string> fig3, paper_keys;
  for (const SweepCell& c : competing_grid(42)) {
    fig3.insert(key(c));
    paper.emplace(c.label, key(c));
  }
  for (const SweepCell& c : solo_grid(42)) paper.emplace(c.label, key(c));
  for (const auto& [label, k] : paper) paper_keys.insert(k);
  ASSERT_EQ(paper_keys.size(), 81u);

  const std::vector<SweepCell> harm = harm_grid(42);
  ASSERT_EQ(harm.size(), 27u);
  for (const SweepCell& c : harm) {
    ASSERT_EQ(paper.count(c.label), 1u) << c.label;
    EXPECT_EQ(key(c), paper[c.label]) << c.label;
  }
  const std::vector<SweepCell> fig2 = fig2_grid(42);
  ASSERT_EQ(fig2.size(), 18u);
  for (const SweepCell& c : fig2) {
    EXPECT_EQ(fig3.count(key(c)), 1u) << c.label;
  }
  std::size_t aqm_shared = 0;
  for (const SweepCell& c : aqm_grid(42)) {
    const bool shared = fig3.count(key(c)) == 1;
    EXPECT_EQ(shared, c.scenario.queue_kind == core::QueueKind::kDropTail)
        << c.label;
    aqm_shared += shared ? 1 : 0;
  }
  EXPECT_EQ(aqm_shared, 6u);

  std::set<std::string> variants;
  for (const SweepCell& c : controller_grid(42)) variants.insert(key(c));
  EXPECT_EQ(variants.size(), 10u);
  for (const char* name : {"smoke", "tcp_pairs", "multiflow", "controller"}) {
    const std::vector<SweepCell> cells = *grid_by_name(name, 42);
    for (const SweepCell& c : cells) {
      EXPECT_EQ(paper_keys.count(key(c)), 0u) << name << ": " << c.label;
    }
  }
}

TEST(Grids, TcpPairsAreTwoBulkFlowsFromZero) {
  const std::vector<SweepCell> cells = tcp_pairs_grid(42);
  ASSERT_EQ(cells.size(), 18u);  // 6 pairs x 3 queues
  for (const SweepCell& c : cells) {
    const std::vector<core::FlowSpec> flows = c.scenario.effective_flows();
    ASSERT_EQ(flows.size(), 2u) << c.label;
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(flows[i].kind, FlowKind::kBulkTcp);
      EXPECT_EQ(flows[i].id, net::FlowId(i + 1));
      EXPECT_EQ(flows[i].start, kTimeZero);
    }
    const core::AnalysisWindows w = core::analysis_windows(c.scenario);
    EXPECT_EQ(w.fairness_from, std::chrono::seconds(35));
    EXPECT_EQ(w.fairness_to, std::chrono::seconds(60));
  }
}

TEST(Grids, MultiflowMixesCompeteOverTheMiddleOfTheRun) {
  const std::vector<SweepCell> cells = multiflow_grid(42);
  ASSERT_EQ(cells.size(), 18u);  // 3 systems x 6 mixes
  for (const SweepCell& c : cells) {
    const std::vector<core::FlowSpec> flows = c.scenario.effective_flows();
    ASSERT_GE(flows.size(), 3u) << c.label;
    EXPECT_EQ(flows.front().kind, FlowKind::kGameStream);
    EXPECT_EQ(flows.front().id, 1u);
    EXPECT_EQ(flows.back().kind, FlowKind::kPing);
    EXPECT_EQ(flows.back().id, 3u);
    for (std::size_t i = 1; i + 1 < flows.size(); ++i) {
      EXPECT_EQ(flows[i].kind, FlowKind::kBulkTcp);
      EXPECT_EQ(flows[i].id, net::FlowId(10 + i - 1));
    }
    const core::AnalysisWindows w = core::analysis_windows(c.scenario);
    EXPECT_EQ(w.compete_from, std::chrono::seconds(60));
    EXPECT_EQ(w.compete_to, std::chrono::seconds(240));
    EXPECT_EQ(w.fairness_from, std::chrono::seconds(95));
    EXPECT_EQ(w.fairness_to, std::chrono::seconds(240));
  }
}

}  // namespace
}  // namespace cgs::tools
