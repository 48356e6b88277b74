// Reproduce one Figure-2 panel end to end: a chosen game system at 25 Mb/s
// with a competing TCP flow during the middle three minutes, printed as a
// time series and written to CSV for plotting.
//
//   ./congestion_response [stadia|geforce|luna] [cubic|bbr] [runs] [out.csv]
//
// Demonstrates: a one-cell run_sweep, cross-run aggregation with 95% CIs,
// the response/recovery metrics of §4.2, and CSV export.
#include <cstdio>
#include <cstring>
#include <string>

#include "cgstream.hpp"

int main(int argc, char** argv) {
  using cgs::stream::GameSystem;
  using cgs::tcp::CcAlgo;

  cgs::core::Scenario sc;
  sc.system = argc > 1 && !std::strcmp(argv[1], "geforce") ? GameSystem::kGeForce
              : argc > 1 && !std::strcmp(argv[1], "luna")  ? GameSystem::kLuna
                                                           : GameSystem::kStadia;
  sc.tcp_algo = argc > 2 && !std::strcmp(argv[2], "bbr") ? CcAlgo::kBbr
                                                         : CcAlgo::kCubic;
  sc.capacity = cgs::Bandwidth::mbps(25.0);
  sc.queue_bdp_mult = 2.0;

  cgs::core::SweepOptions opts;
  opts.runs = argc > 3 ? std::atoi(argv[3]) : 5;
  opts.on_snapshot = [](const cgs::core::ProgressSnapshot& s) {
    if (s.final) return;
    std::fprintf(stderr, "\r  run %d/%d", s.finished, s.total);
    if (s.finished == s.total) std::fprintf(stderr, "\n");
  };

  std::printf("condition: %s (%d runs)\n", sc.label().c_str(), opts.runs);
  const auto sweep = cgs::core::run_sweep({{sc.label(), sc}}, opts);
  const cgs::core::ConditionResult& res = sweep.results[0];

  // Print a decimated series: time, game mean +/- CI, tcp mean.
  std::printf("\n%8s %12s %10s %12s\n", "t (s)", "game (Mb/s)", "+/-CI",
              "tcp (Mb/s)");
  for (std::size_t i = 0; i < res.game.mean.size(); i += 40) {  // every 20 s
    std::printf("%8.0f %12.2f %10.2f %12.2f\n", double(i) * 0.5,
                res.game.mean[i], res.game.ci95[i], res.tcp.mean[i]);
  }

  std::printf("\nresponse time : %.1f s%s\n", res.rr.response_s,
              res.rr.responded ? "" : " (never settled)");
  std::printf("recovery time : %.1f s%s\n", res.rr.recovery_s,
              res.rr.recovered ? "" : " (never recovered)");
  std::printf("fairness      : %+.2f (sd %.2f across runs)\n",
              res.fairness_mean, res.fairness_sd);

  const std::string csv = argc > 4 ? argv[4] : "congestion_response.csv";
  cgs::core::write_series_csv(csv, std::chrono::milliseconds(500),
                              {{"game", res.game}, {"tcp", res.tcp}});
  std::printf("full series written to %s\n", csv.c_str());
  return 0;
}
