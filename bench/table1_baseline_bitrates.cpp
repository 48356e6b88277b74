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

  std::unique_ptr<cgs::CsvWriter> csv;
  if (args.csv) {
    csv = std::make_unique<cgs::CsvWriter>(args.csv_prefix + ".csv");
    csv->header({"system", "bitrate_mbps_mean", "bitrate_mbps_sd"});
  }

  int i = 0;
  for (auto sys : cgs::core::kAllSystems) {
    // ~1 Gb/s: unconstrained relative to any system's maximum.
    cgs::core::Scenario sc = cgs::tools::base_scenario(
        sys, 1000.0, 2.0, std::nullopt, args.seed);
    cgs::core::RunnerOptions opts;
    opts.runs = args.runs;
    opts.threads = args.threads;
    const auto res = cgs::core::run_condition(sc, opts);
    table.add_row({std::string(cgs::tools::sys_name(sys)),
                   cgs::core::fmt_mean_sd(res.steady_mean_mbps,
                                          res.steady_sd_mbps),
                   paper[i++]});
    if (csv) {
      csv->row({std::string(cgs::tools::sys_name(sys)),
                std::to_string(res.steady_mean_mbps),
                std::to_string(res.steady_sd_mbps)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "note: the measured sd reflects in-run encoder variation only; the\n"
      "paper's sd additionally contains day-scale Internet variability.\n");
  return 0;
}
