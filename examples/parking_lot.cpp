// A 3-hop parking-lot topology: the game stream traverses three
// bottlenecks in series while each hop carries its own single-hop cubic
// cross-traffic flow, so congestion is hop-local rather than end-to-end.
//
//   ./parking_lot [runs] [out_prefix]
//
// Demonstrates: ParkingLotParams / parking_lot_scenario, the per-link
// summary table (utilization, drops, peak queue depth per hop) and the
// per-link utilization series CSV export.
#include <cstdio>
#include <string>
#include <vector>

#include "cgstream.hpp"

int main(int argc, char** argv) {
  using namespace std::chrono;

  cgs::core::ParkingLotParams p;
  p.hops = 3;
  p.cross_per_hop = 1;          // one cubic flow pinned to each hop
  p.tcp_start = seconds(185);   // the paper's competing-flow schedule
  p.tcp_stop = seconds(370);
  p.duration = seconds(390);
  const cgs::core::Scenario sc = cgs::core::parking_lot_scenario(p);

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

  // Per-flow digest (end-to-end game + per-hop cross flows), then the
  // per-hop link digest: each hop's utilization, drops and peak depth.
  std::printf("%s\n", cgs::core::render_flow_summary(res).c_str());
  std::printf("%s\n", cgs::core::render_link_summary(res).c_str());

  const std::string prefix = argc > 2 ? argv[2] : "parking_lot";
  const std::string links_csv = prefix + "_links.csv";
  std::vector<cgs::core::NamedSeries> series;
  for (const auto& row : res.link_rows) {
    series.push_back({row.name, row.util});
  }
  cgs::core::write_series_csv(links_csv, milliseconds(500), series);
  std::printf("per-link series written to %s\n", links_csv.c_str());
  return 0;
}
