// Ablation A3: controller-component knockout.  Re-runs the centre cell
// (25 Mb/s, 2x BDP) with Stadia-like controller variants that disable one
// mechanism each, quantifying what each contributes:
//   - no-relative-delay : gradient detector off (hard ceiling + loss stay)
//   - no-standing-queue : tolerate permanently-standing queues
//   - no-loss-law       : delay-only control
//   - absolute-delay    : naive 25 ms absolute threshold — the
//                         death-spiral design DESIGN.md §4 warns about
#include <cstdio>

#include "bench_common.hpp"
#include "stream/controllers/stadia_like.hpp"

namespace {

using cgs::stream::StadiaLikeConfig;

struct Variant {
  const char* name;
  StadiaLikeConfig cfg;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"baseline", StadiaLikeConfig{}});

  StadiaLikeConfig no_rel;
  no_rel.detector.rel_factor = 1e9;
  out.push_back({"no-relative-delay", no_rel});

  StadiaLikeConfig no_standing;
  no_standing.standing_floor = cgs::Time(std::chrono::hours(1));
  out.push_back({"no-standing-queue", no_standing});

  StadiaLikeConfig no_loss;
  no_loss.loss_threshold = 1.1;  // unreachable
  out.push_back({"no-loss-law", no_loss});

  StadiaLikeConfig absolute;
  absolute.detector.rel_factor = 0.0;  // trigger when delay > abs_margin
  absolute.detector.abs_margin = std::chrono::milliseconds(25);
  absolute.standing_floor = cgs::Time(std::chrono::hours(1));
  out.push_back({"absolute-delay-25ms", absolute});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "ablation_controller");

  using cgs::tcp::CcAlgo;

  std::printf(
      "Ablation A3 — Stadia-like controller component knockout "
      "(25 Mb/s, 2x BDP, %d runs per cell)\n\n",
      args.runs);

  cgs::core::TextTable table;
  table.set_header({"variant", "CC", "fairness", "game Mb/s", "RTT ms", "fps",
                    "loss %"});

  for (const auto& v : variants()) {
    for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
      auto sc = cgs::tools::base_scenario(cgs::stream::GameSystem::kStadia,
                                          25.0, 2.0, cc, args.seed);
      const StadiaLikeConfig cfg = v.cfg;
      sc.controller_override = [cfg] {
        return std::make_unique<cgs::stream::StadiaLikeController>(cfg);
      };
      cgs::core::RunnerOptions opts;
      opts.runs = args.runs;
      opts.threads = args.threads;
      const auto res = cgs::core::run_condition(sc, opts);

      char f[16], g[16], r[24], fps[16], l[16];
      std::snprintf(f, sizeof f, "%+.2f", res.fairness_mean);
      std::snprintf(g, sizeof g, "%.1f", res.game_fair_mbps);
      std::snprintf(r, sizeof r, "%.1f (%.1f)", res.rtt_mean_ms,
                    res.rtt_sd_ms);
      std::snprintf(fps, sizeof fps, "%.1f", res.fps_mean);
      std::snprintf(l, sizeof l, "%.2f", res.loss_mean * 100.0);
      table.add_row({v.name, std::string(cgs::tcp::to_string(cc)), f, g, r,
                     fps, l});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected: absolute-delay collapses against Cubic's standing queue; "
      "no-standing-queue overheats against BBR; no-loss-law overruns "
      "shallow queues.\n");
  return 0;
}
