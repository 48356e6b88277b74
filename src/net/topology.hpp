// Declarative network topology — the graph generalisation of the paper's
// Figure-1 single bottleneck.
//
// A TopologySpec names directed links (rate, propagation delay, queue
// discipline and size, optional ingress impairment, optional deterministic
// rate schedule) and per-flow paths as link-name sequences.  TopologyGraph
// instantiates the spec against a simulator: one Link + egress FlowDemux
// per LinkSpec, per-link Impairment stages on private RNG streams, and
// flow routing registered hop by hop, so arbitrary multi-bottleneck shapes
// (parking lots, asymmetric up/down paths, variable-rate access links)
// compose from the same Link/Queue primitives the single-bottleneck
// testbed always used.  A 1-link graph built from the synthesized paper
// default is object-for-object identical to the retired hard-wired
// BottleneckRouter wiring, which is what keeps the golden traces
// bit-exact across the refactor.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/impairment.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"

namespace cgs::net {

/// Routes packets to a per-flow sink (each link's egress stage) and counts
/// every flow's deliveries on the way.
///
/// Routes live in one flat open-addressed table (Fibonacci hash, linear
/// probing, at most half full), so a packet costs one multiply and almost
/// always one probe.  Each route entry carries its flow's DeliveryCounter:
/// accounting needs no second lookup.  Flow ids are arbitrary u32s, which
/// is why the table is hashed rather than indexed by id.
class FlowDemux final : public PacketSink {
 public:
  /// `clock` stamps the delivery counters; it must outlive the demux.
  explicit FlowDemux(const sim::Simulator& clock);

  /// Route `flow` to `sink` (non-null; must outlive the demux).
  /// Re-registering a flow replaces its sink and keeps its counter.
  void register_flow(FlowId flow, PacketSink* sink);
  void handle_packet(PacketPtr pkt) override;

  /// Everything this demux has routed for `flow`, or nullptr when the flow
  /// is not registered.  The pointer is valid until the next registration.
  [[nodiscard]] const DeliveryCounter* delivered(FlowId flow) const;
  [[nodiscard]] std::uint64_t unroutable_total() const { return unroutable_; }

 private:
  struct Route {
    PacketSink* sink = nullptr;  // nullptr marks a free slot
    FlowId flow = 0;
    DeliveryCounter counter;
  };

  static constexpr std::size_t kNoRoute = ~std::size_t{0};

  /// Slot holding `flow`'s route, or kNoRoute.
  [[nodiscard]] std::size_t find(FlowId flow) const;
  [[nodiscard]] std::size_t home_slot(FlowId flow) const {
    return std::size_t(std::uint32_t(flow * 0x9e3779b1u) >> shift_);
  }
  void rehash(std::size_t slots);

  const sim::Simulator& clock_;
  std::vector<Route> table_;  // power-of-two size
  unsigned shift_ = 32;       // 32 - log2(table_.size())
  std::size_t routes_ = 0;
  std::uint64_t unroutable_ = 0;
};

/// Queue discipline selector for a link (the paper's router ran DropTail;
/// CoDel / FQ-CoDel are the §5 future-work AQMs).
enum class QueueKind { kDropTail, kCoDel, kFqCoDel };

[[nodiscard]] std::string_view to_string(QueueKind k);

/// Instantiate a queue discipline with the given byte capacity.
[[nodiscard]] std::unique_ptr<Queue> make_queue(QueueKind kind,
                                                ByteSize capacity);

/// One step of a deterministic per-link rate schedule (wifi/cellular-like
/// capacity variation): at sim time `at` the link's rate becomes `rate`.
struct RateChange {
  Time at = kTimeZero;
  Bandwidth rate;
};

/// One directed link of the topology.
struct LinkSpec {
  /// Diagnostic/report name; empty synthesizes "link<i>".
  std::string name;
  /// Informational endpoint node names (e.g. "server" -> "isp").
  std::string from, to;

  Bandwidth rate = Bandwidth::mbps(25.0);
  Time prop_delay = std::chrono::milliseconds(1);

  /// Queue discipline; nullopt inherits the scenario's queue_kind.
  std::optional<QueueKind> queue;
  /// Queue size in multiples of BDP(rate, base_rtt); nullopt inherits the
  /// scenario's queue_bdp_mult.
  std::optional<double> queue_bdp_mult;
  /// Explicit queue size in bytes; wins over any BDP derivation.
  std::optional<ByteSize> queue_bytes;

  /// Ingress impairment stage (netem on this hop); every flow entering the
  /// link passes through it.
  std::optional<ImpairmentConfig> impair;

  /// Deterministic mid-run capacity changes, sorted by `at`.
  std::vector<RateChange> rate_schedule;
};

/// Path assignment for one flow: downstream (server -> client) and
/// upstream (client -> server) link-name sequences.  Flows without a
/// PathSpec take the topology's default paths.  The upstream sequence may
/// be empty: the testbed always appends a pure delay line that pads the
/// flow's round trip to the scenario base_rtt.
struct PathSpec {
  FlowId flow = 0;
  std::vector<std::string> down;
  std::vector<std::string> up;
};

struct TopologySpec {
  std::string name = "custom";
  std::vector<LinkSpec> links;
  std::vector<PathSpec> paths;

  /// Paths for flows without an explicit PathSpec.  default_down empty
  /// falls back to every link in declaration order (the common chain
  /// topology); default_up empty means a pure delay-line reverse path.
  std::vector<std::string> default_down;
  std::vector<std::string> default_up;

  [[nodiscard]] bool empty() const { return links.empty(); }

  /// Index of the named link, or -1.
  [[nodiscard]] int link_index(std::string_view link_name) const;

  /// The explicit PathSpec for `flow`, or nullptr.
  [[nodiscard]] const PathSpec* path_for(FlowId flow) const;

  /// Copy with empty link names filled in ("link<i>").
  [[nodiscard]] TopologySpec resolved() const;

  // -- canonical shapes ------------------------------------------------------

  /// The paper's Figure-1 shape: one downstream bottleneck link named
  /// "bottleneck", delay-line reverse paths.  This is what Scenario
  /// synthesizes when no explicit topology is given.
  [[nodiscard]] static TopologySpec single_bottleneck(Bandwidth rate,
                                                      Time prop_delay);

  /// N bottlenecks in series ("parking lot"): links "hop0".."hop<n-1>",
  /// default downstream path traversing all of them.  Cross-traffic flows
  /// are given single-hop paths via `paths`.
  [[nodiscard]] static TopologySpec parking_lot(std::size_t hops,
                                                Bandwidth rate,
                                                Time prop_delay);

  /// Asymmetric access: a "down" bottleneck on the forward path and an
  /// "up" bottleneck on the reverse path (ACK/feedback contention).
  [[nodiscard]] static TopologySpec asymmetric(Bandwidth down_rate,
                                               Bandwidth up_rate,
                                               Time prop_delay);
};

/// The instantiated graph: owns links, per-link egress demuxes, per-link
/// ingress impairment stages and upstream delay lines, and registers
/// per-flow routes hop by hop.  The spec must have passed
/// Scenario::validate() (or equivalent) — construction assumes link names
/// and path references resolve.
class TopologyGraph {
 public:
  struct Config {
    QueueKind default_queue = QueueKind::kDropTail;
    double default_bdp_mult = 2.0;
    /// BDP base for per-link queue sizing.
    Time base_rtt = std::chrono::microseconds(16'500);
    /// Per-link impairment RNG streams are Pcg32(seed, 0xd01 + link index),
    /// so the synthesized default's only stage keeps the historical 0xd01
    /// "down" stream.
    std::uint64_t seed = 0;
  };

  TopologyGraph(sim::Simulator& sim, PacketFactory& factory,
                TopologySpec spec, const Config& cfg);
  TopologyGraph(const TopologyGraph&) = delete;
  TopologyGraph& operator=(const TopologyGraph&) = delete;

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] Link& link_at(std::size_t i) { return *links_[i]; }
  [[nodiscard]] const Link& link_at(std::size_t i) const { return *links_[i]; }
  [[nodiscard]] Link* find_link(std::string_view link_name);

  /// The sole link of a single-bottleneck graph; throws std::logic_error
  /// naming the topology when the graph has more than one link.
  [[nodiscard]] Link& bottleneck();
  [[nodiscard]] const Link& bottleneck() const;

  /// Resolved queue capacity of link `i` in bytes.
  [[nodiscard]] ByteSize queue_capacity(std::size_t i) const {
    return queue_bytes_[i];
  }

  /// Ingress impairment stage of link `i`, or nullptr.
  [[nodiscard]] Impairment* ingress_impairment(std::size_t i) {
    return impair_[i].get();
  }

  /// Where packets enter link `i`: its impairment stage when configured,
  /// else the link itself.
  [[nodiscard]] PacketSink& link_entry(std::size_t i);

  /// Link `i`'s egress demux: per-flow routes and delivery counters at the
  /// far end of the link.
  [[nodiscard]] const FlowDemux& egress(std::size_t i) const {
    return *demux_[i];
  }

  // -- per-flow wiring -------------------------------------------------------

  /// Ingress of `flow`'s first downstream link.
  [[nodiscard]] PacketSink& downstream_entry(FlowId flow);

  /// Register `sink` as the flow's client endpoint and install the
  /// intermediate hop-to-hop routes of its downstream path.
  void register_client(FlowId flow, PacketSink* sink);

  /// Index of the flow's last downstream link (where its goodput is
  /// measured — the client side of the path).
  [[nodiscard]] std::size_t terminal_link(FlowId flow) const;

  /// Build the flow's reverse path: a delay line of `pad` feeding the
  /// flow's upstream link chain (possibly empty) and finally
  /// `server_sink`.  Returns the sink the client endpoint sends to.  The
  /// graph owns the delay line.
  PacketSink& make_upstream(FlowId flow, Time pad, PacketSink* server_sink);

  /// Flow-agnostic pure-delay reverse path (the legacy BottleneckRouter
  /// contract, used by its facade).
  PacketSink& make_delay_upstream(Time delay, PacketSink* server_sink);

  /// Sum of propagation delays over the flow's downstream / upstream links
  /// (RTT-padding inputs).
  [[nodiscard]] Time down_prop(FlowId flow) const;
  [[nodiscard]] Time up_prop(FlowId flow) const;

  /// Schedule every link's rate_schedule changes (call once at run start;
  /// a no-op for topologies without rate schedules).
  void schedule_rate_changes();

 private:
  struct ResolvedPath {
    std::vector<std::size_t> down, up;
  };

  [[nodiscard]] const ResolvedPath& resolved(FlowId flow) const;

  sim::Simulator& sim_;
  TopologySpec spec_;
  // Demuxes precede links (each link's dst is its egress demux).
  std::vector<std::unique_ptr<FlowDemux>> demux_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Impairment>> impair_;  // parallel; may be null
  std::vector<ByteSize> queue_bytes_;
  std::vector<std::unique_ptr<DelayLine>> upstream_;

  ResolvedPath default_path_;
  std::unordered_map<FlowId, ResolvedPath> flow_paths_;
};

}  // namespace cgs::net
