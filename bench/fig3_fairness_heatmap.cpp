// Figure 3: heatmaps of the bitrate-difference ratio
// (game - TCP) / capacity over 220-370 s, for each game system (blocks),
// capacity (rows) x queue size (columns), competing with TCP Cubic (top
// half) and TCP BBR (bottom half).
//
// Renders the fig3 grid (tools/grids.hpp), run as ONE sweep on the
// shared worker pool: late stragglers in one cell overlap with the next
// cell's runs instead of idling a per-cell fork/join pool.
//
// Paper shape targets (EXPERIMENTS.md): vs Cubic Stadia warm (hottest
// 0.5x/35), Luna near-fair, GeForce all-cool; vs BBR GeForce cooler still,
// Luna all-cool (coolest 0.5x/35), Stadia near-fair but warmer at 7x.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "fig3");

  using cgs::stream::GameSystem;
  using cgs::tcp::CcAlgo;

  const std::vector<double> caps = {35.0, 25.0, 15.0};
  const std::vector<double> queues = {0.5, 2.0, 7.0};
  const CcAlgo ccs[] = {CcAlgo::kCubic, CcAlgo::kBbr};

  const auto sweep = bench::run_grid("fig3", args);
  const cgs::core::AnalysisWindows w =
      cgs::core::analysis_windows(sweep.cells.front().scenario);
  std::printf(
      "Figure 3 — ratio of bitrate difference (game - TCP) / capacity, "
      "window %.0f-%.0f s, %d runs per cell\n\n",
      cgs::to_seconds(w.fairness_from), cgs::to_seconds(w.fairness_to),
      args.runs);

  for (CcAlgo cc : ccs) {
    std::printf("=== competing flow: TCP %s ===\n",
                std::string(cgs::tcp::to_string(cc)).c_str());
    for (GameSystem sys : cgs::core::kAllSystems) {
      std::vector<std::vector<double>> grid(
          caps.size(), std::vector<double>(queues.size(), 0.0));
      for (std::size_t r = 0; r < caps.size(); ++r) {
        for (std::size_t c = 0; c < queues.size(); ++c) {
          grid[r][c] =
              bench::result_for(sweep, sys, caps[r], queues[c], cc)
                  .fairness_mean;
        }
      }
      std::printf("%s\n",
                  cgs::core::render_heatmap_block(
                      std::string(cgs::stream::to_string(sys)) + " vs " +
                          std::string(cgs::tcp::to_string(cc)),
                      caps, queues, grid, args.color)
                      .c_str());
    }
  }
  return 0;
}
