// Extension E3 (paper §5 future work): harm-based analysis (Ware et al.,
// HotNets 2019).  Instead of throughput fairness, measure how much of each
// party's solo performance the other destroys, benchmarked against the
// harm Cubic does to another Cubic flow ("TCP-harm budget").  Renders the
// harm grid (tools/grids.hpp): the solo game stream is one cell per
// (system, queue), shared by both competitors.
#include <cstdio>

#include "bench_common.hpp"

namespace {

using cgs::tcp::CcAlgo;

// A saturating solo TCP flow achieves ~capacity minus protocol overhead;
// the harm ratio takes the nominal 24.0 Mb/s on this 25 Mb/s link.
constexpr double kSoloTcpMbps = 24.0;

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "ext_harm");

  std::printf(
      "Extension E3 — harm analysis (Ware et al.): fraction of solo "
      "performance destroyed (25 Mb/s, %d runs per cell)\n\n",
      args.runs);

  cgs::core::TextTable table;
  table.set_header({"System", "CC", "queue", "harm to game tput",
                    "harm to game fps", "harm to TCP tput"});
  const auto sweep = bench::run_grid("harm", args);

  for (auto sys : cgs::core::kAllSystems) {
    for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
      for (double q : cgs::core::kQueueMults) {
        const auto& rs = bench::result_for(sweep, sys, 25.0, q, std::nullopt);
        const auto& rc = bench::result_for(sweep, sys, 25.0, q, cc);
        char qs[16], h1[16], h2[16], h3[16];
        std::snprintf(qs, sizeof qs, "%.1fx", q);
        std::snprintf(h1, sizeof h1, "%.2f",
                      cgs::core::harm_more_is_better(rs.steady_mean_mbps,
                                                     rc.game_fair_mbps));
        std::snprintf(h2, sizeof h2, "%.2f",
                      cgs::core::harm_more_is_better(rs.fps_mean,
                                                     rc.fps_mean));
        std::snprintf(h3, sizeof h3, "%.2f",
                      cgs::core::harm_more_is_better(kSoloTcpMbps,
                                                     rc.tcp_fair_mbps));
        table.add_row({std::string(cgs::stream::to_string(sys)),
                       std::string(cgs::tcp::to_string(cc)), qs, h1, h2, h3});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: a flow pair is 'acceptable' under Ware et al. if it harms "
      "the other no more than another TCP flow would (~0.5 on this link).\n");
  return 0;
}
