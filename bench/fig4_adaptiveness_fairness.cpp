// Figure 4 (a, b): adaptiveness vs fairness scatter.  One point per game
// system x network condition; response/recovery times normalised by the
// maxima observed across all points of the same competing-CCA panel, then
// A = 1/2 (1 - C/Cmax) + 1/2 (1 - E/Emax).  Renders the fig4 grid (the
// competing grid, tools/grids.hpp), run as one sweep.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

namespace {

struct Point {
  cgs::stream::GameSystem system;
  double capacity;
  double queue;
  double fairness;
  cgs::core::ResponseRecovery rr;
};

char queue_marker(double q) {
  if (q < 1.0) return '-';
  if (q < 5.0) return 'o';
  return '+';
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "fig4");

  using cgs::tcp::CcAlgo;

  const auto sweep = bench::run_grid("fig4", args);
  for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
    std::vector<Point> pts;
    for (auto sys : cgs::core::kAllSystems) {
      for (double cap : {15.0, 25.0, 35.0}) {
        for (double q : {0.5, 2.0, 7.0}) {
          const auto& res = bench::result_for(sweep, sys, cap, q, cc);
          pts.push_back({sys, cap, q, res.fairness_mean, res.rr});
        }
      }
    }
    // Normalise by panel maxima (§4.2).
    double c_max = 1e-9, e_max = 1e-9;
    for (const auto& p : pts) {
      c_max = std::max(c_max, p.rr.response_s);
      e_max = std::max(e_max, p.rr.recovery_s);
    }

    std::printf(
        "Figure 4%s — adaptiveness vs fairness, game systems vs TCP %s "
        "(%d runs/point; Cmax=%.0fs Emax=%.0fs)\n",
        cc == CcAlgo::kCubic ? "a" : "b",
        std::string(cgs::tcp::to_string(cc)).c_str(), args.runs, c_max,
        e_max);
    std::printf("  marker: - 0.5x, o 2x, + 7x BDP\n");

    // 21 rows (A from 1.0 down to 0.0), 61 cols (fairness -1..1).
    std::vector<std::string> canvas(21, std::string(61, ' '));
    for (std::size_t i = 0; i < canvas.size(); ++i) canvas[i][30] = ':';
    for (const auto& p : pts) {
      const double a = cgs::core::adaptiveness(p.rr, c_max, e_max);
      const int row = std::clamp(int((1.0 - a) * 20.0 + 0.5), 0, 20);
      const int col = std::clamp(int((p.fairness + 1.0) * 30.0 + 0.5), 0, 60);
      char m = queue_marker(p.queue);
      // Distinguish systems by letter when markers collide.
      const char sys_c = cgs::stream::to_string(p.system)[0];
      canvas[std::size_t(row)][std::size_t(col)] =
          canvas[std::size_t(row)][std::size_t(col)] == ' ' ? m : sys_c;
    }
    std::printf("  A 1.0 %s\n", canvas[0].c_str());
    for (std::size_t i = 1; i + 1 < canvas.size(); ++i) {
      std::printf("      %s\n", canvas[i].c_str());
    }
    std::printf("  A 0.0 %s\n", canvas.back().c_str());
    std::printf("      fairness -1%28s+1\n", "0");

    // Per-system summary (the paper's coloured ovals).
    std::printf("\n  %-8s %-18s %-18s %s\n", "system", "fairness[min,max]",
                "adaptiveness[min,max]", "centre");
    for (auto sys : cgs::core::kAllSystems) {
      double fmin = 1, fmax = -1, amin = 1, amax = 0, fc = 0, ac = 0;
      int n = 0;
      for (const auto& p : pts) {
        if (p.system != sys) continue;
        const double a = cgs::core::adaptiveness(p.rr, c_max, e_max);
        fmin = std::min(fmin, p.fairness);
        fmax = std::max(fmax, p.fairness);
        amin = std::min(amin, a);
        amax = std::max(amax, a);
        fc += p.fairness;
        ac += a;
        ++n;
      }
      std::printf("  %-8s [%+.2f, %+.2f]     [%.2f, %.2f]          (%+.2f, %.2f)\n",
                  std::string(cgs::stream::to_string(sys)).c_str(), fmin,
                  fmax, amin, amax, fc / n, ac / n);
    }
    std::printf("\n");
  }
  return 0;
}
