// Table 1: steady-state game-system bitrates with no capacity constraint
// and no competing traffic.  Paper values: Stadia 27.5 (2.3), GeForce
// 24.5 (1.8), Luna 23.7 (0.9) Mb/s.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "table1");

  std::printf(
      "Table 1 — game system bitrates without capacity constraints or "
      "competing traffic (Mb/s), %d runs\n\n",
      args.runs);

  cgs::core::TextTable table;
  table.set_header({"System", "Bitrate (Mb/s)", "paper"});
  const char* paper[] = {"27.5 (2.3)", "24.5 (1.8)", "23.7 (0.9)"};

  const auto sweep = bench::run_grid("table1", args);

  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const auto sys = sweep.cells[i].scenario.system;
    const auto& res = sweep.results[i];
    table.add_row({std::string(cgs::stream::to_string(sys)),
                   cgs::core::fmt_mean_sd(res.steady_mean_mbps,
                                          res.steady_sd_mbps),
                   paper[i]});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "note: the measured sd reflects in-run encoder variation only; the\n"
      "paper's sd additionally contains day-scale Internet variability.\n");
  return 0;
}
