// Dumps FNV-1a hashes of the RunTrace for a fixed set of scenarios: the
// three paper-mix cells, a TCP-only 3-hop parking lot and one bottleneck
// shared by two game streams, two bulk-TCP flows and ping.  Used to
// (re)generate the constants in tests/integration/golden_trace_test.cpp:
// any refactor of the scenario -> testbed -> collectors spine must keep
// these bit-identical.
#include <cstdio>
#include <vector>

#include "core/journal.hpp"
#include "core/testbed.hpp"

namespace {

using namespace std::chrono;
using cgs::core::FlowSpec;
using cgs::core::Scenario;
using cgs::stream::GameSystem;
using cgs::tcp::CcAlgo;

// The whole-trace digest is the shared golden hasher (core/journal.hpp) —
// the same function the sweep journal stamps on every record, so journaled
// hashes are directly comparable to the golden constants.  The payload
// digest covers every byte serialize_trace writes.
using cgs::core::trace_hash;

std::uint64_t payload_hash(const cgs::core::RunTrace& t) {
  const std::vector<unsigned char> bytes = cgs::core::serialize_trace(t);
  return cgs::core::fnv1a_bytes(1469598103934665603ULL, bytes.data(),
                                bytes.size());
}

Scenario paper_cell(GameSystem sys, std::optional<CcAlgo> cc,
                    std::uint64_t seed) {
  Scenario sc;
  sc.system = sys;
  sc.tcp_algo = cc;
  sc.duration = seconds(90);
  sc.tcp_start = seconds(30);
  sc.tcp_stop = seconds(60);
  sc.seed = seed;
  return sc;
}

Scenario tcp_only_lot() {
  cgs::core::ParkingLotParams p;
  p.hops = 3;
  p.game_flow = false;
  p.ping_flow = false;
  p.cubic_flows = 1;
  p.bbr_flows = 1;
  p.duration = seconds(30);
  p.tcp_start = seconds(5);
  p.tcp_stop = seconds(25);
  p.seed = 7;
  return cgs::core::parking_lot_scenario(p);
}

Scenario two_game_mix() {
  Scenario sc;
  sc.capacity = cgs::Bandwidth::mbps(50.0);
  sc.duration = seconds(40);
  sc.seed = 5;
  sc.flows = {FlowSpec::game_stream(GameSystem::kStadia),
              FlowSpec::game_stream(GameSystem::kLuna),
              FlowSpec::bulk_tcp(CcAlgo::kCubic, seconds(10), seconds(30)),
              FlowSpec::bulk_tcp(CcAlgo::kBbr, seconds(10), seconds(30)),
              FlowSpec::ping()};
  return sc;
}

}  // namespace

int main() {
  struct Cell {
    const char* name;
    Scenario sc;
  };
  const Cell cells[] = {
      {"stadia_cubic", paper_cell(GameSystem::kStadia, CcAlgo::kCubic, 1)},
      {"geforce_bbr", paper_cell(GameSystem::kGeForce, CcAlgo::kBbr, 11)},
      {"luna_solo", paper_cell(GameSystem::kLuna, std::nullopt, 5)},
      {"lot_tcp_only", tcp_only_lot()},
      {"two_game_mix", two_game_mix()},
  };
  for (const Cell& c : cells) {
    cgs::core::Testbed bed(c.sc);
    const cgs::core::RunTrace t = bed.run();
    std::printf("%-14s trace=0x%016llx payload=0x%016llx\n", c.name,
                (unsigned long long)trace_hash(t),
                (unsigned long long)payload_hash(t));
  }
  return 0;
}
