// Extension E1 (paper §5 future work): the game stream competing with
// HTTP adaptive streaming video (a DASH/Netflix-style player) instead of a
// bulk download.  The player fetches 4 s chunks over TCP (Cubic or BBR),
// idles when its buffer is full, and adapts its quality ladder — a far
// burstier competitor than iperf.
#include <cstdio>

#include "apps/dash_video.hpp"
#include "bench_common.hpp"

namespace {

using namespace cgs::literals;

struct Result {
  double game_mbps;
  double game_fps;
  double video_quality_mbps;
  double video_stall_s;
  double rtt_ms;
};

Result run_one(cgs::stream::GameSystem sys, cgs::tcp::CcAlgo cc,
               std::uint64_t seed) {
  cgs::sim::Simulator sim;
  cgs::net::PacketFactory factory;
  const auto cap = 25_mbps;
  const cgs::Time rtt(16500_us);
  auto spec = cgs::net::TopologySpec::single_bottleneck(cap, 1_ms);
  spec.links[0].queue_bytes = bdp(cap, rtt) * 2;
  cgs::net::TopologyGraph graph(sim, factory, spec, {});
  const cgs::Time pad = (rtt - 2_ms) / 2;
  cgs::net::DelayLine access(sim, pad, &graph.link_entry(0));

  // Game stream.
  cgs::Pcg32 rng(seed);
  const auto& prof = cgs::stream::profile_for(sys);
  cgs::stream::StreamSender::Options so;
  so.flow = 1;
  so.burst_factor = prof.burst_factor;
  cgs::stream::StreamSender game_tx(sim, factory, so,
                                    cgs::stream::frame_config_for(sys),
                                    cgs::stream::make_controller(sys),
                                    rng.fork(1));
  cgs::stream::StreamReceiver game_rx(
      sim, factory,
      {.flow = 1, .fec_rate = prof.fec_rate,
       .playout_deadline = prof.playout_deadline});
  graph.register_client(1, &game_rx);
  game_tx.set_output(&access);
  game_rx.set_output(&graph.make_upstream(1, pad + 1_ms, &game_tx));

  // DASH video player.
  cgs::apps::DashVideoClient video(sim, factory, 2, cc);
  graph.register_client(2, &video.flow().receiver());
  video.attach(&access,
               &graph.make_upstream(2, pad + 1_ms, &video.flow().sender()));

  // Ping probe for RTT.
  cgs::core::PingClient ping(sim, factory, 3);
  cgs::core::PingResponder pong(sim, factory, 3);
  cgs::net::DelayLine ping_access(sim, pad, &graph.link_entry(0));
  pong.set_output(&ping_access);
  graph.register_client(3, &ping);
  ping.set_output(&graph.make_upstream(3, pad + 1_ms, &pong));

  // Schedule: game from 0; video during [60 s, 240 s); measure that window.
  game_rx.start();
  game_tx.start();
  ping.start();
  sim.schedule_at(60_sec, [&] { video.start(); });
  sim.schedule_at(240_sec, [&] { video.stop(); });

  // Game bytes delivered in [60 s, 240 s): the bottleneck's egress
  // counter for flow 1, read at each window edge.
  const cgs::net::DeliveryCounter& game = *graph.egress(0).delivered(1);
  sim.run_until(60_sec);
  std::int64_t game_bytes = -game.bytes_before(60_sec);
  sim.run_until(240_sec);
  game_bytes += game.bytes_before(240_sec);
  sim.run_until(260_sec);

  Result r;
  r.game_mbps = cgs::rate_of(cgs::ByteSize(game_bytes), 180_sec)
                    .megabits_per_sec();
  r.game_fps = game_rx.display().fps_over(60_sec, 240_sec);
  r.video_quality_mbps = video.mean_quality().megabits_per_sec();
  r.video_stall_s = cgs::to_seconds(video.stall_time(240_sec));
  cgs::RunningStats rtt_ms;
  for (const auto& s : ping.samples()) {
    if (s.at >= 60_sec && s.at < 240_sec) {
      rtt_ms.add(cgs::to_seconds(s.rtt) * 1e3);
    }
  }
  r.rtt_ms = rtt_ms.mean();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // A hand-wired run, not a grid: one seeded run per row, and no sweep
  // CSV set to write.
  const auto args = bench::parse_args(argc, argv, nullptr);

  std::printf(
      "Extension E1 — game stream vs DASH adaptive video (25 Mb/s, 2x BDP, "
      "video active 60-240 s)\n\n");

  cgs::core::TextTable table;
  table.set_header({"System", "video CC", "game Mb/s", "game fps",
                    "video quality Mb/s", "video stalls s", "RTT ms"});
  for (auto sys : cgs::core::kAllSystems) {
    for (auto cc : {cgs::tcp::CcAlgo::kCubic, cgs::tcp::CcAlgo::kBbr}) {
      const auto r = run_one(sys, cc, args.seed);
      char g[16], f[16], q[16], s[16], rt[16];
      std::snprintf(g, sizeof g, "%.1f", r.game_mbps);
      std::snprintf(f, sizeof f, "%.1f", r.game_fps);
      std::snprintf(q, sizeof q, "%.1f", r.video_quality_mbps);
      std::snprintf(s, sizeof s, "%.1f", r.video_stall_s);
      std::snprintf(rt, sizeof rt, "%.1f", r.rtt_ms);
      table.add_row({std::string(cgs::stream::to_string(sys)),
                     std::string(cgs::tcp::to_string(cc)), g, f, q, s, rt});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: DASH's on/off chunk fetching leaves the game stream idle "
      "gaps to recover in, unlike the paper's continuous iperf flow.\n");
  return 0;
}
