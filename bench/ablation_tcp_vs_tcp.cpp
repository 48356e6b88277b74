// Ablation A2 (paper §2.2 context): two bulk TCP flows sharing the
// bottleneck — the Miyazawa / Claypool observation that intra-protocol
// pairs balance while Cubic-vs-BBR pairs are imbalanced, with the balance
// flipping with queue size (Cao et al.: queue vs BDP decides when BBR
// wins).  Renders the tcp_pairs grid (tools/grids.hpp).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "ablation_tcp_vs_tcp");

  const auto sweep = bench::run_grid("tcp_pairs", args);
  const auto& first = sweep.cells.front().scenario;
  const cgs::core::AnalysisWindows w = cgs::core::analysis_windows(first);
  std::printf(
      "Ablation A2 — two bulk TCP flows on a 25 Mb/s bottleneck "
      "(16.5 ms RTT), share over %.0f-%.0f s of %.0f s, %d runs per cell\n\n",
      cgs::to_seconds(w.fairness_from), cgs::to_seconds(w.fairness_to),
      cgs::to_seconds(first.duration), args.runs);

  cgs::core::TextTable table;
  table.set_header({"pair", "queue", "flow A Mb/s", "flow B Mb/s", "Jain"});
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const auto& sc = sweep.cells[i].scenario;
    const auto& res = sweep.results[i];
    char name[48], qs[16], am[16], bm[16], j[16];
    std::snprintf(name, sizeof name, "%s vs %s",
                  std::string(cgs::tcp::to_string(sc.flows[0].algo)).c_str(),
                  std::string(cgs::tcp::to_string(sc.flows[1].algo)).c_str());
    std::snprintf(qs, sizeof qs, "%.1fx", sc.queue_bdp_mult);
    std::snprintf(am, sizeof am, "%.1f", res.flow_rows[0].fair_mbps_mean);
    std::snprintf(bm, sizeof bm, "%.1f", res.flow_rows[1].fair_mbps_mean);
    std::snprintf(j, sizeof j, "%.3f", res.jain_mean);
    table.add_row({name, qs, am, bm, j});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected: intra-protocol pairs near Jain=1; cubic-vs-bbr imbalanced "
      "(BBR favoured at small queues, Cubic at bloated queues); Vegas "
      "starved by both.\n");
  return 0;
}
