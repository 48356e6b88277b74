// Experiment configuration — one cell of the paper's parameter grid
// (Table 2) plus the schedule constants from §3.4.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fluid.hpp"
#include "net/impairment.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "stream/profiles.hpp"
#include "tcp/congestion_control.hpp"
#include "util/units.hpp"

namespace cgs::core {

// QueueKind lives with the topology layer now (net/topology.hpp); aliased
// here so existing core::QueueKind spellings keep compiling.
using QueueKind = net::QueueKind;
using net::to_string;

/// Propagation delay of the synthesized default bottleneck link (the
/// router -> clients segment of the paper's Figure 1).
inline constexpr Time kBottleneckProp = std::chrono::milliseconds(1);

/// What kind of traffic source a FlowSpec instantiates.
enum class FlowKind { kGameStream, kBulkTcp, kPing };

[[nodiscard]] std::string_view to_string(FlowKind k);

/// One traffic source in the mix.  The paper's topology is the 3-flow
/// special case (game stream + optional bulk TCP + ping); arbitrary N-flow
/// mixes are built by filling Scenario::flows.
struct FlowSpec {
  FlowKind kind = FlowKind::kBulkTcp;

  /// Stable flow identifier used for routing, per-flow seeds and trace
  /// keys.  0 = auto-assign (first free id in declaration order).
  net::FlowId id = 0;

  /// Report / diagnostic label; empty synthesizes "<kind><index>".
  std::string name;

  /// Game-stream flows: system model; nullopt inherits Scenario::system.
  std::optional<stream::GameSystem> system;

  /// Bulk-tcp flows: congestion control algorithm.
  tcp::CcAlgo algo = tcp::CcAlgo::kCubic;

  /// Activity window.  start == kTimeZero: active from the beginning;
  /// stop == nullopt: active until the end of the run.
  Time start = kTimeZero;
  std::optional<Time> stop;

  /// Extra one-way delay appended to this flow's downstream access path on
  /// top of the scenario-wide base_rtt padding (heterogeneous-RTT mixes).
  Time extra_owd = kTimeZero;

  /// Per-flow upstream impairment override; nullopt inherits
  /// Scenario::impair_up.
  std::optional<net::ImpairmentConfig> impair_up;

  // Convenience factories for the common cases.
  [[nodiscard]] static FlowSpec game_stream(
      std::optional<stream::GameSystem> sys = std::nullopt);
  [[nodiscard]] static FlowSpec bulk_tcp(tcp::CcAlgo algo, Time start,
                                         std::optional<Time> stop);
  [[nodiscard]] static FlowSpec ping();
};

struct Scenario {
  stream::GameSystem system = stream::GameSystem::kStadia;

  /// Bottleneck capacity (paper: 15, 25 or 35 Mb/s; ~1 Gb/s = unconstrained).
  Bandwidth capacity = Bandwidth::mbps(25.0);

  /// Router queue size in multiples of BDP(capacity, base_rtt)
  /// (paper: 0.5, 2 or 7).
  double queue_bdp_mult = 2.0;

  /// Competing bulk TCP flow; nullopt = no competing traffic.  Ignored
  /// (together with tcp_start/tcp_stop) when `flows` is non-empty.
  std::optional<tcp::CcAlgo> tcp_algo = tcp::CcAlgo::kCubic;

  QueueKind queue_kind = QueueKind::kDropTail;

  /// All flows are delay-padded to this base round-trip time (§3.3).
  Time base_rtt = std::chrono::microseconds(16'500);

  // Schedule (§3.4): 9-minute trace, iperf in the middle 3 minutes.  A mix
  // with no bulk TCP still takes its analysis windows from tcp_start and
  // tcp_stop (core::analysis_windows).
  Time duration = std::chrono::seconds(555);
  Time tcp_start = std::chrono::seconds(185);
  Time tcp_stop = std::chrono::seconds(370);

  std::uint64_t seed = 1;

  /// Custom traffic mix.  Empty = the paper's default 3-flow mix
  /// synthesized from the scalar fields above (game stream id 1 from t=0,
  /// optional bulk TCP id 2 over [tcp_start, tcp_stop), ping id 3).  When
  /// non-empty, the scalar tcp_algo/tcp_start/tcp_stop are ignored.
  std::vector<FlowSpec> flows;

  /// The mix the testbed will instantiate: `flows`, or the synthesized
  /// paper-default mix when `flows` is empty, with ids, names and each
  /// game stream's system resolved.
  [[nodiscard]] std::vector<FlowSpec> effective_flows() const;

  /// The upstream impairment of `flow`: its own, else impair_up.
  [[nodiscard]] const net::ImpairmentConfig& upstream_impairment(
      const FlowSpec& flow) const;

  /// Network shape.  Empty = the paper's Figure-1 single bottleneck
  /// synthesized from the scalar fields above (capacity, queue_kind,
  /// queue_bdp_mult, impair_down).  When non-empty, per-link rate/queue
  /// fields govern and the scalar capacity is informational only;
  /// impair_down must stay empty (set topology.links[i].impair instead).
  net::TopologySpec topology;

  /// The topology the testbed will instantiate: `topology` with link names
  /// resolved, or the synthesized single-bottleneck graph (with impair_down
  /// folded into the link) when `topology` is empty.
  [[nodiscard]] net::TopologySpec effective_topology() const;

  /// The graph defaults the testbed builds effective_topology() with: the
  /// scalar queue_kind and queue_bdp_mult, base_rtt and seed.
  [[nodiscard]] net::TopologyGraph::Config graph_config() const;

  /// Fluid background fleet (hybrid fidelity): populations of flyweight
  /// background sessions placed per-link, modeled as aggregate rates on a
  /// coarse tick instead of per-packet endpoints.  Empty (the default) is
  /// a strict no-op — golden traces stay bit-identical.  See
  /// net/fluid.hpp and DESIGN.md "Hybrid fidelity & fleet modeling".
  net::FleetSpec fleet;

  /// Path impairments — the netem half of the paper's router.  The
  /// downstream stage sits in front of the shared bottleneck link (all
  /// downstream flows pass through it); the upstream spec is instantiated
  /// once per flow on its reverse path.  Defaults are no-ops.
  net::ImpairmentConfig impair_down;
  net::ImpairmentConfig impair_up;

  /// Event budget for the run's watchdog: a run processing more events than
  /// this aborts with a WatchdogError diagnostic instead of spinning (a
  /// fault-injected livelock becomes a test failure, not a hung CI job).
  /// 0 derives a generous duration-proportional budget.
  std::uint64_t watchdog_event_budget = 0;

  /// Test-only deterministic fault injection: makes a chosen (cell, seed)
  /// job misbehave in a controlled way so the sweep engine's isolation and
  /// failure recording can be exercised by real process deaths instead of
  /// mocks.  kNone (the default) is a strict no-op — a scenario with no
  /// fault produces bit-identical traces to one that never had the field.
  enum class FaultKind : std::uint8_t {
    kNone = 0,
    kCrash = 1,  ///< raise SIGSEGV at run start (fatal signal -> kCrash)
    kOom = 2,    ///< allocate without bound (bad_alloc / RLIMIT_AS / OOM
                 ///< kill -> kResource)
    kSpin = 3,   ///< burn real time in periodic sim events: invisible to
                 ///< the event budget, caught by the forked supervisor's
                 ///< wall-clock deadline (kTimeout); in-process the run
                 ///< just crawls to the end of its schedule
  };
  struct FaultSpec {
    FaultKind kind = FaultKind::kNone;
    /// Trigger only when the run's seed matches; 0 poisons every seed of
    /// the cell.
    std::uint64_t seed = 0;
  };
  FaultSpec fault;

  /// Invariant-audit policy for the run (byte conservation, queue bounds,
  /// sequence sanity at the bottleneck; see core/audit.hpp).  The auditor
  /// is observer-only — traces are bit-identical with it on or off — so
  /// kAuto enables it in Debug builds and disables it in Release, keeping
  /// benchmark numbers clean while every Debug test run is audited.
  enum class AuditMode : std::uint8_t { kAuto, kOn, kOff };
  AuditMode audit = AuditMode::kAuto;

  /// Optional: replace the profile's rate controller (ablation studies,
  /// custom-controller experiments). Called once per run.
  std::function<std::unique_ptr<stream::RateController>()> controller_override;

  /// Throws std::invalid_argument naming the offending field for
  /// nonsensical configurations (capacity <= 0, tcp_start > tcp_stop, ...).
  /// Testbed validates on construction; call directly to fail earlier.
  void validate() const;

  /// Queue capacity in bytes implied by capacity/queue_bdp_mult/base_rtt.
  [[nodiscard]] ByteSize queue_bytes() const;

  /// Human-readable condition label, e.g. "Stadia 25Mb/s 2.0xBDP cubic".
  [[nodiscard]] std::string label() const;
};

/// Knobs for the canonical parking-lot scenario family (N bottlenecks in
/// series, end-to-end primary flows, single-hop cross traffic per hop).
struct ParkingLotParams {
  std::size_t hops = 3;
  Bandwidth hop_rate = Bandwidth::mbps(25.0);
  Time hop_prop = std::chrono::milliseconds(1);
  double queue_bdp_mult = 2.0;

  /// End-to-end primary flows (traverse every hop).
  bool game_flow = true;
  bool ping_flow = true;
  std::size_t bbr_flows = 0;    ///< N-BBR melee participants
  std::size_t cubic_flows = 0;  ///< N-Cubic melee participants

  /// Single-hop cross-traffic TCP flows on each hop.
  std::size_t cross_per_hop = 1;
  tcp::CcAlgo cross_algo = tcp::CcAlgo::kCubic;

  /// Activity window shared by every TCP flow (primary melee + cross).
  Time tcp_start = std::chrono::seconds(30);
  std::optional<Time> tcp_stop;

  Time duration = std::chrono::seconds(90);
  std::uint64_t seed = 1;
};

/// Build a parking-lot Scenario: topology from TopologySpec::parking_lot,
/// explicit flow ids (game=1, then melee TCP, then per-hop cross flows,
/// ping last) and PathSpecs pinning each cross flow to its single hop.
[[nodiscard]] Scenario parking_lot_scenario(const ParkingLotParams& params);

/// The paper's grid values.
inline constexpr double kQueueMults[] = {0.5, 2.0, 7.0};
inline constexpr double kCapacitiesMbps[] = {15.0, 25.0, 35.0};
inline constexpr stream::GameSystem kAllSystems[] = {
    stream::GameSystem::kStadia, stream::GameSystem::kGeForce,
    stream::GameSystem::kLuna};

}  // namespace cgs::core
