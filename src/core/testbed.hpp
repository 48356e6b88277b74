// Builds the testbed topology for one Scenario and executes its schedule.
//
// The paper's Figure-1 setup (game stream from t=0, competing iperf TCP
// flow over [tcp_start, tcp_stop), ping probes throughout) is the default
// 3-flow mix; arbitrary N-flow mixes are instantiated from
// Scenario::flows.  The network shape comes from Scenario::topology (or
// the synthesized single-bottleneck graph): every flow gets its own
// endpoints, access delay line and schedule events, and is routed over its
// per-flow path through the net::TopologyGraph; collectors sample every
// link's counters.
#pragma once

#include <memory>
#include <vector>

#include "core/audit.hpp"
#include "core/collectors.hpp"
#include "core/ping.hpp"
#include "core/scenario.hpp"
#include "net/fluid.hpp"
#include "net/topology.hpp"
#include "stream/receiver.hpp"
#include "stream/sender.hpp"
#include "tcp/bulk_app.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace cgs::core {

class Testbed {
 public:
  explicit Testbed(const Scenario& scenario);

  /// Arena-backed run: the event engine's slot/node slabs and the packet
  /// pool's chunks are carved from `arena` (which must outlive the
  /// Testbed).  Sweep workers reuse one arena across jobs — construct,
  /// run, destroy, arena.reset() — so steady-state job turnover performs
  /// no slab allocations at all.  Packets must not outlive the run.
  Testbed(const Scenario& scenario, util::Arena* arena);

  /// Execute the full schedule; returns the measured trace.
  [[nodiscard]] RunTrace run();

  /// Per-flow master RNG: a pure function of (scenario seed, flow id), so
  /// adding or removing one flow never perturbs another flow's stream.
  /// Flow id 1 keeps the pre-registry derivation (Pcg32(seed)) so the
  /// paper's default mix — whose only RNG consumer is the game sender on
  /// flow 1 — reproduces historical traces bit-exactly.
  [[nodiscard]] static Pcg32 flow_master_rng(std::uint64_t seed,
                                             net::FlowId id);

  // Instantiated flows, in mix declaration order within each kind.
  struct GameFlow {
    FlowSpec spec;
    std::unique_ptr<stream::StreamSender> sender;
    std::unique_ptr<stream::StreamReceiver> receiver;
    std::unique_ptr<net::DelayLine> access;
  };
  struct TcpFlow {
    FlowSpec spec;
    std::unique_ptr<tcp::BulkTcpFlow> flow;
    std::unique_ptr<net::DelayLine> access;
  };
  struct PingFlow {
    FlowSpec spec;
    std::unique_ptr<PingClient> client;
    std::unique_ptr<PingResponder> responder;
    std::unique_ptr<net::DelayLine> access;
  };

  // Component access (tests, custom schedules).
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// The instantiated network graph (topology().bottleneck() is the sole
  /// link of a single-bottleneck scenario).
  [[nodiscard]] net::TopologyGraph& topology() { return *graph_; }

  /// First link's ingress impairment stage (the scenario-wide downstream
  /// stage for synthesized single-bottleneck graphs), or nullptr when none
  /// is configured.
  [[nodiscard]] net::Impairment* downstream_impairment() {
    return graph_->ingress_impairment(0);
  }
  /// Per-flow upstream impairment stages (empty when the scenario has none).
  [[nodiscard]] const std::vector<std::unique_ptr<net::Impairment>>&
  upstream_impairments() const {
    return up_impairs_;
  }

  [[nodiscard]] const std::vector<GameFlow>& game_flows() const {
    return games_;
  }
  [[nodiscard]] const std::vector<TcpFlow>& tcp_flows() const { return tcps_; }

  /// Primary game-stream endpoints; throws std::logic_error when the mix
  /// has no game-stream flow.
  [[nodiscard]] stream::StreamSender& game_sender();
  [[nodiscard]] stream::StreamReceiver& game_receiver();
  /// Primary ping client; throws std::logic_error when the mix has none.
  [[nodiscard]] PingClient& ping();
  /// Primary competing TCP flow, or nullptr when the mix has none.
  [[nodiscard]] tcp::BulkTcpFlow* tcp_flow();

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

  /// The fluid fleet runtime, or nullptr when the scenario's fleet spec is
  /// empty.
  [[nodiscard]] net::FluidAggregate* fleet() { return fluid_.get(); }

  /// The first link's invariant auditor, or nullptr when auditing resolved
  /// to off (Scenario::audit, kAuto = Debug builds only).
  [[nodiscard]] const SimAuditor* auditor() const {
    return auditors_.empty() ? nullptr : auditors_.front().get();
  }

 private:
  /// Arm the scenario's test-only fault (Scenario::fault) at run start:
  /// no-op unless the fault targets this run's seed.
  void inject_fault();

  /// "mix[1 game + 1 tcp + 1 ping] fleet[200]"-style composition summary
  /// for accessor diagnostics.
  [[nodiscard]] std::string composition() const;

  void build_game_flow(const FlowSpec& spec, Time pad_down, Time pad_up);
  void build_tcp_flow(const FlowSpec& spec, Time pad_down, Time pad_up);
  void build_ping_flow(const FlowSpec& spec, Time pad_down, Time pad_up);
  /// Upstream path entry for `spec`: the graph's reverse path, fronted by
  /// an impairment stage when the spec (or scenario) configures one.
  [[nodiscard]] net::PacketSink* upstream_entry(const FlowSpec& spec,
                                                net::PacketSink& up);

  Scenario scenario_;
  sim::Simulator sim_;
  net::PacketFactory factory_;
  // sim_ and factory_ precede every component so endpoints/links are
  // destroyed (returning packets to the pool) before the engine and pool.

  std::unique_ptr<net::TopologyGraph> graph_;

  // Per-flow upstream impairment stages (scenario.impair_up and per-flow
  // overrides); downstream stages live inside the graph.
  std::vector<std::unique_ptr<net::Impairment>> up_impairs_;

  std::vector<GameFlow> games_;
  std::vector<TcpFlow> tcps_;
  std::vector<PingFlow> pings_;

  std::unique_ptr<TraceCollectors> collectors_;
  std::vector<std::unique_ptr<SimAuditor>> auditors_;
  // Fluid background fleet; null when scenario_.fleet is empty, so the
  // packet path runs exactly the legacy code.
  std::unique_ptr<net::FluidAggregate> fluid_;
};

}  // namespace cgs::core
