// Table 3: round-trip time (ms) without a competing TCP flow, per
// capacity x queue size x system.  Paper shape: ~16-17 ms at 0.5x queues,
// rising to ~18-22 ms at 7x (solo systems keep queuing low).
//
// Renders the table3 grid (tools/grids.hpp), all 27 cells run as one sweep
// on the shared worker pool.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "table3");

  std::printf(
      "Table 3 — round-trip time (ms) without a competing TCP flow, "
      "%d runs per cell\n\n",
      args.runs);

  const double caps[] = {15.0, 25.0, 35.0};
  const double queues[] = {0.5, 2.0, 7.0};

  const auto sweep = bench::run_grid("table3", args);

  cgs::core::TextTable table;
  table.set_header({"Capacity", "BDP", "Stadia", "GeForce", "Luna"});
  for (double cap : caps) {
    for (double q : queues) {
      std::vector<std::string> row;
      char lbl[32];
      std::snprintf(lbl, sizeof lbl, "%.0f Mb/s", cap);
      row.emplace_back(lbl);
      std::snprintf(lbl, sizeof lbl, "%.1fx", q);
      row.emplace_back(lbl);
      for (auto sys : cgs::core::kAllSystems) {
        const auto& res =
            bench::result_for(sweep, sys, cap, q, std::nullopt);
        row.push_back(cgs::core::fmt_mean_sd(res.rtt_mean_ms, res.rtt_sd_ms));
      }
      table.add_row(std::move(row));
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "paper reference: 16-17 (small queues) rising ~25%% for larger "
      "queues; never near the queue-full delay.\n");
  return 0;
}
