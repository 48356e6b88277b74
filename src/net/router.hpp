// Flow demultiplexer and the legacy single-bottleneck router facade.
//
// BottleneckRouter mirrors the paper's Figure 1: every downstream flow is
// funnelled into one constrained link (queue + capacity + delay) whose far
// end demuxes packets to per-flow client endpoints.  Upstream traffic
// bypasses the bottleneck through per-flow DelayLines (the paper's upstream
// path was never the bottleneck: 200+ Mb/s measured).
//
// Since the topology-graph refactor this class is a thin convenience: the
// standalone constructor keeps the historical direct-wiring API for tests
// and benchmarks, while the graph constructor makes it a view over a
// single-bottleneck net::TopologyGraph (what Testbed::router() hands out
// for synthesized paper-default scenarios).  Multi-bottleneck shapes are
// expressed with TopologySpec/TopologyGraph directly (net/topology.hpp).
#pragma once

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"

namespace cgs::net {

/// One congested downstream link shared by all flows + uncongested per-flow
/// reverse paths.
class BottleneckRouter {
 public:
  /// Standalone mode: owns its link, demux and upstream delay lines.
  BottleneckRouter(sim::Simulator& sim, Bandwidth capacity, Time prop_delay,
                   std::unique_ptr<Queue> queue);

  /// View mode: delegate to a single-bottleneck TopologyGraph (owns
  /// nothing; `graph` must outlive the router).  Throws std::logic_error
  /// naming the topology when the graph has more than one link.
  explicit BottleneckRouter(TopologyGraph& graph);

  /// Downstream entry point: servers send here (optionally through their own
  /// access DelayLine for RTT padding).
  [[nodiscard]] PacketSink& downstream_in();

  /// Register the client endpoint for a downstream flow.
  void register_client(FlowId flow, PacketSink* sink);

  /// Create an uncongested upstream path to `server_sink` with one-way
  /// `delay`; returns the sink clients send their upstream packets to.
  /// The owning side (router or graph) keeps the DelayLine alive.
  PacketSink& make_upstream(Time delay, PacketSink* server_sink);

  [[nodiscard]] Link& bottleneck();
  [[nodiscard]] const Link& bottleneck() const;

 private:
  sim::Simulator* sim_ = nullptr;    // standalone mode
  TopologyGraph* graph_ = nullptr;   // view mode
  std::unique_ptr<FlowDemux> demux_;  // standalone mode
  std::unique_ptr<Link> link_;
  std::vector<std::unique_ptr<DelayLine>> upstream_;
};

}  // namespace cgs::net
