// Table 5: client frame rate (f/s) while the competing TCP flow runs.
// Paper shape: >= ~50 f/s against Cubic everywhere (Stadia lowest ~51);
// degraded against BBR at 0.5x/2x queues (Stadia ~40, Luna down to 22.3 at
// 15 Mb/s / 0.5x; GeForce resilient > 50); everyone ~58-60 at 7x.
// Renders the competing grid (tools/grids.hpp), run as one sweep.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "table5");

  using cgs::tcp::CcAlgo;

  std::printf(
      "Table 5 — frame rate (f/s) with competing TCP flow, %d runs per "
      "cell\n\n",
      args.runs);

  const auto sweep =
      bench::run_grid(cgs::tools::competing_grid(args.seed), args);

  std::unique_ptr<cgs::CsvWriter> csv;
  if (args.csv) {
    csv = std::make_unique<cgs::CsvWriter>(args.csv_prefix + ".csv");
    csv->header({"capacity_mbps", "queue_mult", "system", "cc", "fps_mean",
                 "fps_sd", "game_loss"});
  }

  for (double q : {0.5, 2.0, 7.0}) {
    std::printf("=== queue %.1fx BDP ===\n", q);
    cgs::core::TextTable table;
    table.set_header({"Capacity", "Stadia/cubic", "Stadia/bbr",
                      "GeForce/cubic", "GeForce/bbr", "Luna/cubic",
                      "Luna/bbr"});
    for (double cap : {15.0, 25.0, 35.0}) {
      std::vector<std::string> row;
      char lbl[32];
      std::snprintf(lbl, sizeof lbl, "%.0f Mb/s", cap);
      row.emplace_back(lbl);
      for (auto sys : cgs::core::kAllSystems) {
        for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
          const auto& res = bench::result_for(sweep, sys, cap, q, cc);
          row.push_back(cgs::core::fmt_mean_sd(res.fps_mean, res.fps_sd));
          if (csv) {
            csv->row({std::to_string(cap), std::to_string(q),
                      std::string(cgs::tools::sys_name(sys)),
                      std::string(cgs::tcp::to_string(cc)),
                      std::to_string(res.fps_mean),
                      std::to_string(res.fps_sd),
                      std::to_string(res.loss_mean)});
          }
        }
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf(
      "paper reference @15 Mb/s, 0.5x: Stadia 50.8/38.8, GeForce 57.9/51.7, "
      "Luna 53.7/22.3 (cubic/bbr).\n");
  return 0;
}
