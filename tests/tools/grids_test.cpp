// The grid registry (tools/grids.hpp) is what the benches, journals,
// tools/sweep and tools/replay agree on.  These tests pin its shape: every
// registered grid builds; its labels are unique, because renderers,
// replay --cell and failure triage find cells by label; and every cell
// validates.  The fingerprints of fig3, table3, table4, smoke, sick,
// poison, parkinglot and fleet are pinned as literals, so an edit that
// would orphan their existing journals fails here.
#include "tools/grids.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

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
      {"fig3", 42, 1, 0x73754ca5ec321bf5ULL},
      {"fig3", 42, 5, 0x13b6f57f019fe259ULL},
      {"fig3", 7, 1, 0x4c4cf4c8a9926b91ULL},
      {"fig3", 7, 5, 0xca85b5336e282fb5ULL},
      {"table3", 42, 1, 0x73502148d8a9e66fULL},
      {"table3", 42, 5, 0x717e0a45643a774bULL},
      {"table3", 7, 1, 0x00f8655b0313886eULL},
      {"table3", 7, 5, 0x4f48e8d793c56692ULL},
      {"table4", 42, 1, 0x73754ca5ec321bf5ULL},
      {"table4", 42, 5, 0x13b6f57f019fe259ULL},
      {"table4", 7, 1, 0x4c4cf4c8a9926b91ULL},
      {"table4", 7, 5, 0xca85b5336e282fb5ULL},
      {"smoke", 42, 1, 0x8e85fb94c762066aULL},
      {"smoke", 42, 5, 0xef11b7022392409eULL},
      {"smoke", 7, 1, 0x55163af3c17a1eceULL},
      {"smoke", 7, 5, 0x852bd25878cd6742ULL},
      {"sick", 42, 1, 0xab50e39f2b7adaa9ULL},
      {"sick", 42, 5, 0x48fe6c9111e8574dULL},
      {"sick", 7, 1, 0x723fe2c136a1c8c9ULL},
      {"sick", 7, 5, 0xad93e188eef0d37dULL},
      {"poison", 42, 1, 0xead3b1e1201cb5edULL},
      {"poison", 42, 5, 0x55fc137a6c391161ULL},
      {"poison", 7, 1, 0x2c029509c17e5acfULL},
      {"poison", 7, 5, 0x05bdbe8bf59ce3b3ULL},
      {"parkinglot", 42, 1, 0xd7bf785c676de032ULL},
      {"parkinglot", 42, 5, 0x3583ec16425234eeULL},
      {"parkinglot", 7, 1, 0x5fa6f78122557726ULL},
      {"parkinglot", 7, 5, 0x04a299a83317bd72ULL},
      {"fleet", 42, 1, 0x8481aa0bb2d9d456ULL},
      {"fleet", 42, 5, 0x8745ca84bc0fef12ULL},
      {"fleet", 7, 1, 0x96d31534ee3d19acULL},
      {"fleet", 7, 5, 0x196a728f73438d38ULL},
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
