// Table 4: round-trip time (ms) with a competing TCP flow (Cubic or BBR).
// Paper shape: RTT tracks the queue limit under Cubic (~17/40/110 ms at
// 0.5x/2x/7x for 25 Mb/s); under BBR the 7x case is roughly HALVED
// (~52-56 ms) because BBR's inflight cap (2xBDP) bounds the standing queue.
//
// Renders the table4 grid (the competing grid, tools/grids.hpp), all 54
// cells run as one sweep on the shared worker pool.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "table4");

  using cgs::tcp::CcAlgo;

  std::printf(
      "Table 4 — round-trip time (ms) with a competing TCP flow, "
      "%d runs per cell\n\n",
      args.runs);

  const double caps[] = {15.0, 25.0, 35.0};
  const double queues[] = {0.5, 2.0, 7.0};
  const CcAlgo ccs[] = {CcAlgo::kCubic, CcAlgo::kBbr};

  const auto sweep = bench::run_grid("table4", args);

  for (double q : queues) {
    std::printf("=== queue %.1fx BDP ===\n", q);
    cgs::core::TextTable table;
    table.set_header({"Capacity", "Stadia/cubic", "Stadia/bbr",
                      "GeForce/cubic", "GeForce/bbr", "Luna/cubic",
                      "Luna/bbr"});
    for (double cap : caps) {
      std::vector<std::string> row;
      char lbl[32];
      std::snprintf(lbl, sizeof lbl, "%.0f Mb/s", cap);
      row.emplace_back(lbl);
      for (auto sys : cgs::core::kAllSystems) {
        for (CcAlgo cc : ccs) {
          const auto& res = bench::result_for(sweep, sys, cap, q, cc);
          row.push_back(
              cgs::core::fmt_mean_sd(res.rtt_mean_ms, res.rtt_sd_ms));
        }
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf(
      "paper reference @25 Mb/s: cubic 17.8/40.0/110.6 and bbr "
      "20.7/44.2/55.9 ms for Stadia at 0.5x/2x/7x.\n");
  return 0;
}
