// Extension E2 (paper §5 future work): "multiple flows and mixtures of
// flows" — the game stream against N competing bulk TCP flows, including a
// mixed Cubic+BBR pair.  Renders the multiflow grid (tools/grids.hpp).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "ext_multiflow");

  const auto sweep = bench::run_grid("multiflow", args);
  const cgs::core::AnalysisWindows w =
      cgs::core::analysis_windows(sweep.cells.front().scenario);
  std::printf(
      "Extension E2 — game stream vs multiple competing TCP flows "
      "(25 Mb/s, 2x BDP, flows active %.0f-%.0f s; Mb/s over %.0f-%.0f s, "
      "fps and RTT over %.0f-%.0f s, %d runs per cell)\n\n",
      cgs::to_seconds(w.compete_from), cgs::to_seconds(w.compete_to),
      cgs::to_seconds(w.fairness_from), cgs::to_seconds(w.fairness_to),
      cgs::to_seconds(w.compete_from), cgs::to_seconds(w.compete_to),
      args.runs);

  cgs::core::TextTable table;
  table.set_header({"System", "competitors", "game Mb/s", "fair share",
                    "tcp total Mb/s", "game fps", "RTT ms"});
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const auto& sc = sweep.cells[i].scenario;
    const auto& res = sweep.results[i];
    // The fair share splits the link across every flow but the ping.
    const double fair = 25.0 / double(sc.flows.size() - 1);
    // Labels end in " vs <mix>".
    const std::string& label = sweep.cells[i].label;
    char g[16], fs[16], t[16], f[16], rt[16];
    std::snprintf(g, sizeof g, "%.1f", res.game_fair_mbps);
    std::snprintf(fs, sizeof fs, "%.1f", fair);
    std::snprintf(t, sizeof t, "%.1f", res.tcp_fair_mbps);
    std::snprintf(f, sizeof f, "%.1f", res.fps_mean);
    std::snprintf(rt, sizeof rt, "%.1f", res.rtt_mean_ms);
    table.add_row({std::string(cgs::stream::to_string(sc.system)),
                   label.substr(label.rfind(" vs ") + 4), g, fs, t, f, rt});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
