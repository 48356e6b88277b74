// Ablation A2 (paper §2.2 context): two bulk TCP flows sharing the
// bottleneck — the Miyazawa / Claypool observation that intra-protocol
// pairs balance while Cubic-vs-BBR pairs are imbalanced, with the balance
// flipping with queue size (Cao et al.: queue vs BDP decides when BBR
// wins).
#include <cstdio>

#include "cgstream.hpp"

namespace {

using namespace cgs::literals;
using cgs::tcp::CcAlgo;

struct PairResult {
  double a_mbps;
  double b_mbps;
  double jain;
};

PairResult run_pair(CcAlgo a, CcAlgo b, double queue_mult) {
  cgs::sim::Simulator sim;
  cgs::net::PacketFactory factory;
  const auto cap = 25_mbps;
  const auto rtt = cgs::Time(16500_us);
  const auto qbytes =
      cgs::ByteSize(std::int64_t(double(bdp(cap, rtt).bytes()) * queue_mult));
  auto spec = cgs::net::TopologySpec::single_bottleneck(cap, 1_ms);
  spec.links[0].queue_bytes = qbytes;
  cgs::net::TopologyGraph graph(sim, factory, spec, {});
  cgs::net::DelayLine access(sim, (rtt - 2_ms) / 2, &graph.link_entry(0));

  cgs::tcp::BulkTcpFlow fa(sim, factory, 1, a);
  cgs::tcp::BulkTcpFlow fb(sim, factory, 2, b);
  graph.register_client(1, &fa.receiver());
  graph.register_client(2, &fb.receiver());
  fa.attach(&access, &graph.make_upstream(1, (rtt - 2_ms) / 2 + 1_ms,
                                          &fa.sender()));
  fb.attach(&access, &graph.make_upstream(2, (rtt - 2_ms) / 2 + 1_ms,
                                          &fb.sender()));
  fa.sender().start();
  fb.sender().start();

  // 60 s, measure the last 40 s.
  sim.run_until(20_sec);
  const auto a0 = fa.receiver().bytes_delivered();
  const auto b0 = fb.receiver().bytes_delivered();
  sim.run_until(60_sec);
  const double am =
      cgs::rate_of(fa.receiver().bytes_delivered() - a0, 40_sec)
          .megabits_per_sec();
  const double bm =
      cgs::rate_of(fb.receiver().bytes_delivered() - b0, 40_sec)
          .megabits_per_sec();
  return {am, bm, cgs::core::jain_index({am, bm})};
}

}  // namespace

int main() {
  std::printf(
      "Ablation A2 — two bulk TCP flows on a 25 Mb/s bottleneck "
      "(16.5 ms RTT), share over the last 40 of 60 s\n\n");

  cgs::core::TextTable table;
  table.set_header({"pair", "queue", "flow A Mb/s", "flow B Mb/s", "Jain"});
  const std::pair<CcAlgo, CcAlgo> pairs[] = {
      {CcAlgo::kCubic, CcAlgo::kCubic},
      {CcAlgo::kBbr, CcAlgo::kBbr},
      {CcAlgo::kCubic, CcAlgo::kBbr},
      {CcAlgo::kReno, CcAlgo::kCubic},
      {CcAlgo::kVegas, CcAlgo::kCubic},
      {CcAlgo::kVegas, CcAlgo::kBbr},
  };
  for (const auto& [a, b] : pairs) {
    for (double q : {0.5, 2.0, 7.0}) {
      const auto r = run_pair(a, b, q);
      char name[48], qs[16], am[16], bm[16], j[16];
      std::snprintf(name, sizeof name, "%s vs %s",
                    std::string(to_string(a)).c_str(),
                    std::string(to_string(b)).c_str());
      std::snprintf(qs, sizeof qs, "%.1fx", q);
      std::snprintf(am, sizeof am, "%.1f", r.a_mbps);
      std::snprintf(bm, sizeof bm, "%.1f", r.b_mbps);
      std::snprintf(j, sizeof j, "%.3f", r.jain);
      table.add_row({name, qs, am, bm, j});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected: intra-protocol pairs near Jain=1; cubic-vs-bbr imbalanced "
      "(BBR favoured at small queues, Cubic at bloated queues); Vegas "
      "starved by both.\n");
  return 0;
}
