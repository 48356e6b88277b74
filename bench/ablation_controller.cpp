// Ablation A3: controller-component knockout.  Re-runs the centre cell
// (25 Mb/s, 2x BDP) with Stadia-like controller variants that disable one
// mechanism each, quantifying what each contributes:
//   - no-relative-delay : gradient detector off (hard ceiling + loss stay)
//   - no-standing-queue : tolerate permanently-standing queues
//   - no-loss-law       : delay-only control
//   - absolute-delay    : naive 25 ms absolute threshold — the
//                         death-spiral design DESIGN.md §4 warns about
// Renders the controller grid (tools/grids.hpp).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "ablation_controller");

  std::printf(
      "Ablation A3 — Stadia-like controller component knockout "
      "(25 Mb/s, 2x BDP, %d runs per cell)\n\n",
      args.runs);

  cgs::core::TextTable table;
  table.set_header({"variant", "CC", "fairness", "game Mb/s", "RTT ms", "fps",
                    "loss %"});

  const auto sweep = bench::run_grid("controller", args);

  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const auto& res = sweep.results[i];
    char f[16], g[16], r[24], fps[16], l[16];
    std::snprintf(f, sizeof f, "%+.2f", res.fairness_mean);
    std::snprintf(g, sizeof g, "%.1f", res.game_fair_mbps);
    std::snprintf(r, sizeof r, "%.1f (%.1f)", res.rtt_mean_ms, res.rtt_sd_ms);
    std::snprintf(fps, sizeof fps, "%.1f", res.fps_mean);
    std::snprintf(l, sizeof l, "%.2f", res.loss_mean * 100.0);
    // Labels are "<variant> <cc>".
    const std::string& label = sweep.cells[i].label;
    const std::string cc(
        cgs::tcp::to_string(*sweep.cells[i].scenario.tcp_algo));
    table.add_row({label.substr(0, label.rfind(' ')), cc, f, g, r, fps, l});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected: absolute-delay collapses against Cubic's standing queue; "
      "no-standing-queue overheats against BBR; no-loss-law overruns "
      "shallow queues.\n");
  return 0;
}
