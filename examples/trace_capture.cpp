// Capture a per-packet trace of one experiment — the simulator's
// "save the Wireshark capture" workflow — and print per-flow summaries.
//
//   ./trace_capture [stadia|geforce|luna] [cubic|bbr] [trace.csv]
//
// Demonstrates: TraceLog attached to the bottleneck, per-flow digests
// (goodput, drop rate, jitter), CSV export of the raw packet events.
#include <cstdio>
#include <cstring>
#include <string>

#include "cgstream.hpp"
#include "core/tracelog.hpp"

int main(int argc, char** argv) {
  using cgs::stream::GameSystem;
  using cgs::tcp::CcAlgo;

  cgs::core::Scenario sc;
  sc.system = argc > 1 && !std::strcmp(argv[1], "geforce") ? GameSystem::kGeForce
              : argc > 1 && !std::strcmp(argv[1], "luna")  ? GameSystem::kLuna
                                                           : GameSystem::kStadia;
  sc.tcp_algo = argc > 2 && !std::strcmp(argv[2], "bbr") ? CcAlgo::kBbr
                                                         : CcAlgo::kCubic;
  // A 3-minute excerpt keeps the CSV manageable (~1M events for 9 min).
  sc.duration = cgs::from_seconds(180);
  sc.tcp_start = cgs::from_seconds(60);
  sc.tcp_stop = cgs::from_seconds(120);

  cgs::core::Testbed bed(sc);
  cgs::core::TraceLog log;
  log.reserve(1'500'000);
  log.attach(bed.topology().bottleneck());
  std::printf("capturing: %s\n", sc.label().c_str());
  (void)bed.run();

  std::printf("%zu packet events captured\n\n", log.size());

  auto print_phase = [&](const char* name, cgs::Time from, cgs::Time to) {
    std::printf("--- %s [%.0f, %.0f) s ---\n", name, cgs::to_seconds(from),
                cgs::to_seconds(to));
    cgs::core::TextTable t;
    t.set_header({"flow", "pkts", "drops", "drop %", "goodput Mb/s",
                  "jitter ms"});
    for (const auto& f : log.summarize(from, to)) {
      const char* names[] = {"?", "game", "tcp", "ping"};
      char pk[16], dr[16], dp[16], gp[16], ji[16];
      std::snprintf(pk, sizeof pk, "%llu",
                    (unsigned long long)f.packets_delivered);
      std::snprintf(dr, sizeof dr, "%llu",
                    (unsigned long long)f.packets_dropped);
      std::snprintf(dp, sizeof dp, "%.2f", f.drop_rate() * 100.0);
      std::snprintf(gp, sizeof gp, "%.2f", f.goodput().megabits_per_sec());
      std::snprintf(ji, sizeof ji, "%.2f", cgs::to_seconds(f.jitter) * 1e3);
      t.add_row({f.flow <= 3 ? names[f.flow] : std::to_string(f.flow), pk, dr,
                 dp, gp, ji});
    }
    std::printf("%s\n", t.render().c_str());
  };

  print_phase("before TCP", cgs::from_seconds(10), sc.tcp_start);
  print_phase("during TCP", sc.tcp_start, sc.tcp_stop);
  print_phase("after TCP", sc.tcp_stop, sc.duration);

  const std::string path = argc > 3 ? argv[3] : "trace.csv";
  log.write_csv(path);
  std::printf("raw packet events written to %s\n", path.c_str());
  return 0;
}
