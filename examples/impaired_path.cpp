// Fault injection on the game-stream path: a netem-style impairment stage
// (bursty Gilbert-Elliott loss, jitter, a scheduled mid-run link outage)
// in front of the bottleneck, and what the stream does about it.
//
//   ./impaired_path [stadia|geforce|luna] [drop|hold]
//
// Prints a bitrate sparkline (watch the notch at the 3 s outage), the
// impairment stage's counters, and the endpoint hardening counters
// (frozen feedback windows, concealed frames, discarded duplicates).
#include <cstdio>
#include <cstring>

#include "cgstream.hpp"

namespace {

cgs::stream::GameSystem parse_system(const char* s) {
  using cgs::stream::GameSystem;
  if (std::strcmp(s, "geforce") == 0) return GameSystem::kGeForce;
  if (std::strcmp(s, "luna") == 0) return GameSystem::kLuna;
  return GameSystem::kStadia;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgs::literals;

  cgs::core::Scenario sc;
  sc.system = argc > 1 ? parse_system(argv[1]) : cgs::stream::GameSystem::kStadia;
  const bool hold = argc > 2 && std::strcmp(argv[2], "hold") == 0;

  sc.tcp_algo = cgs::tcp::CcAlgo::kCubic;
  sc.capacity = 25_mbps;
  sc.duration = 60_sec;
  sc.tcp_start = 5_sec;
  sc.tcp_stop = 20_sec;
  sc.seed = 7;

  // The netem half of the router: ~1% loss in bursts (mean length 4),
  // 2 ms of delay jitter, small random duplication, and one 3 s outage.
  sc.impair_down.gilbert_elliott = cgs::net::GilbertElliott{
      .p_good_bad = 0.0025, .p_bad_good = 0.25,
      .good_loss = 0.0, .bad_loss = 1.0};
  sc.impair_down.jitter = 2_ms;
  sc.impair_down.duplicate_rate = 0.001;
  sc.impair_down.outages.push_back(
      {30_sec, 33_sec,
       hold ? cgs::net::OutagePolicy::kHold : cgs::net::OutagePolicy::kDrop});

  std::printf("scenario: %s + impaired path (outage policy: %s)\n",
              sc.label().c_str(),
              std::string(to_string(sc.impair_down.outages[0].policy)).c_str());

  cgs::core::Testbed bed(sc);
  const cgs::core::RunTrace trace = bed.run();

  std::printf("\ngame bitrate (Mb/s), outage at 30-33s:\n  %s\n",
              cgs::core::sparkline(trace.game_mbps()).c_str());

  const auto& c = bed.downstream_impairment()->counters();
  std::printf("\nimpairment stage [%s]:\n",
              bed.downstream_impairment()->name().c_str());
  std::printf("  received   %llu\n", (unsigned long long)c.received);
  std::printf("  delivered  %llu\n", (unsigned long long)c.delivered);
  std::printf("  dropped    %llu random, %llu outage\n",
              (unsigned long long)c.dropped_random,
              (unsigned long long)c.dropped_outage);
  std::printf("  duplicated %llu, held %llu, released %llu\n",
              (unsigned long long)c.duplicated, (unsigned long long)c.held,
              (unsigned long long)c.released);

  std::printf("\nendpoint hardening:\n");
  std::printf("  feedback windows frozen (blackout) : %llu\n",
              (unsigned long long)bed.game_sender().stalled_windows());
  std::printf("  duplicate packets discarded        : %llu\n",
              (unsigned long long)bed.game_receiver().duplicates_discarded());
  std::printf("  frames concealed                   : %llu\n",
              (unsigned long long)bed.game_receiver().frames_concealed());

  const double pre = trace.mean_game_mbps(25_sec, 30_sec);
  const double post = trace.mean_game_mbps(36_sec, 43_sec);
  std::printf("\nbitrate before outage: %.1f Mb/s, after recovery: %.1f Mb/s\n",
              pre, post);
  return 0;
}
