// A 4-flow traffic mix through one bottleneck: two game streams (Stadia +
// GeForce NOW) sharing the link with two competing bulk TCP flows (cubic +
// BBR) during the paper's middle window, plus the usual ping probe.
//
//   ./multi_flow_mix [runs] [out.csv]
//
// Demonstrates: Scenario::flows (FlowSpec mixes), per-flow summary rows and
// the N-flow Jain fairness index, and the per-flow series CSV export.
#include <cstdio>
#include <string>
#include <vector>

#include "cgstream.hpp"

int main(int argc, char** argv) {
  using cgs::core::FlowSpec;
  using cgs::stream::GameSystem;
  using cgs::tcp::CcAlgo;
  using namespace std::chrono;

  cgs::core::Scenario sc;
  sc.capacity = cgs::Bandwidth::mbps(50.0);  // room for two streams
  sc.queue_bdp_mult = 2.0;
  sc.flows = {
      FlowSpec::game_stream(GameSystem::kStadia),
      FlowSpec::game_stream(GameSystem::kGeForce),
      FlowSpec::bulk_tcp(CcAlgo::kCubic, seconds(185), seconds(370)),
      FlowSpec::bulk_tcp(CcAlgo::kBbr, seconds(185), seconds(370)),
      FlowSpec::ping(),
  };

  cgs::core::SweepOptions opts;
  opts.runs = argc > 1 ? std::atoi(argv[1]) : 3;
  opts.on_snapshot = [](const cgs::core::ProgressSnapshot& s) {
    if (s.final) return;
    std::fprintf(stderr, "\r  run %d/%d", s.finished, s.total);
    if (s.finished == s.total) std::fprintf(stderr, "\n");
  };

  std::printf("condition: %s (%d runs)\n\n", sc.label().c_str(), opts.runs);
  const auto sweep = cgs::core::run_sweep({{sc.label(), sc}}, opts);
  const cgs::core::ConditionResult& res = sweep.results[0];

  // Per-flow digest over the fairness window, then the N-flow Jain index
  // across the four throughput-bearing flows.
  std::printf("%s\n", cgs::core::render_flow_summary(res).c_str());

  const std::string csv = argc > 2 ? argv[2] : "multi_flow_mix.csv";
  std::vector<cgs::core::NamedSeries> series;
  for (const auto& row : res.flow_rows) {
    series.push_back({row.name, row.series});
  }
  cgs::core::write_series_csv(csv, milliseconds(500), series);
  std::printf("per-flow series written to %s\n", csv.c_str());
  return 0;
}
