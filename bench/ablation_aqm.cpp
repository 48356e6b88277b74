// Ablation A1 (paper §5 future work): replace the drop-tail router queue
// with CoDel / FQ-CoDel and repeat the Figure-3 style measurement at
// 25 Mb/s.  AQM signals congestion early and FQ isolates the flows, so the
// unfairness patterns of Figure 3 should largely vanish under FQ-CoDel and
// the bufferbloat RTTs of Table 4 should collapse toward the base RTT.
// Renders the aqm grid (tools/grids.hpp).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "ablation_aqm");

  std::printf(
      "Ablation A1 — queue discipline at the bottleneck (25 Mb/s, 7x BDP "
      "limit, %d runs per cell)\n\n",
      args.runs);

  cgs::core::TextTable table;
  table.set_header({"System", "CC", "qdisc", "fairness", "RTT ms", "fps",
                    "game Mb/s", "tcp Mb/s"});

  const auto sweep = bench::run_grid("aqm", args);

  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const auto& sc = sweep.cells[i].scenario;
    const auto& res = sweep.results[i];
    char f[32], r[32], fps[32], g[16], t[16];
    std::snprintf(f, sizeof f, "%+.2f", res.fairness_mean);
    std::snprintf(r, sizeof r, "%.1f (%.1f)", res.rtt_mean_ms, res.rtt_sd_ms);
    std::snprintf(fps, sizeof fps, "%.1f", res.fps_mean);
    std::snprintf(g, sizeof g, "%.1f", res.game_fair_mbps);
    std::snprintf(t, sizeof t, "%.1f", res.tcp_fair_mbps);
    table.add_row({std::string(cgs::stream::to_string(sc.system)),
                   std::string(cgs::tcp::to_string(*sc.tcp_algo)),
                   std::string(cgs::core::to_string(sc.queue_kind)), f, r,
                   fps, g, t});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected: fq_codel pushes fairness toward 0 and RTT toward the "
      "16.5 ms base for every system/CCA pair.\n");
  return 0;
}
