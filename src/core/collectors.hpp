// Trace collection: the simulator's Wireshark + PresentMon + ping log,
// digested into per-run time series (RunTrace).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ping.hpp"
#include "core/scenario.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "stream/receiver.hpp"
#include "util/units.hpp"

namespace cgs::core {

/// Per-flow measured series: goodput buckets plus cumulative packet
/// counters sampled at bucket boundaries.
struct FlowTrace {
  net::FlowId id = 0;
  std::string name;
  FlowKind kind = FlowKind::kBulkTcp;

  /// Downstream goodput at the client side of the bottleneck, one bucket
  /// per sample interval, in Mb/s.
  std::vector<double> mbps;

  /// Cumulative packets at bucket boundaries (entry k = count at
  /// k * interval).  Game-stream flows sample their receiver's counters
  /// (loss-aware); other kinds count bottleneck deliveries, and pkts_lost
  /// stays zero for them.
  std::vector<std::uint64_t> pkts_recv;
  std::vector<std::uint64_t> pkts_lost;
};

/// Per-link measured series (one per topology link, in link declaration
/// order).
struct LinkTrace {
  std::string name;

  /// Delivered throughput per sample interval, all flows, in Mb/s.
  std::vector<double> util_mbps;

  /// Queue occupancy in bytes sampled at bucket boundaries (entry k =
  /// depth at k * interval).
  std::vector<std::uint64_t> depth_bytes;

  /// Cumulative drops at bucket boundaries (entry k = count at
  /// k * interval).
  std::vector<std::uint64_t> drops;
};

/// Everything measured in one experiment run.
struct RunTrace {
  Time sample_interval = std::chrono::milliseconds(500);
  Time duration = kTimeZero;

  /// Per-flow series, in mix declaration order.
  std::vector<FlowTrace> flows;

  // Legacy two-flow views, materialized at finalize() so the paper-default
  // pipeline (and every pre-mix test) keeps working unchanged: game_mbps is
  // the primary game-stream flow's series, tcp_mbps the element-wise sum of
  // every bulk-TCP flow (identical to the single flow's series for the
  // default mix).  The paper's 0.5 s bitrate computation, §4.1.
  std::vector<double> game_mbps;
  std::vector<double> tcp_mbps;

  // Ping RTT samples (primary ping flow).
  std::vector<PingClient::Sample> rtt;

  // Cumulative game-stream packet counters sampled per bucket (primary
  // game-stream flow view).
  std::vector<std::uint64_t> game_pkts_recv;
  std::vector<std::uint64_t> game_pkts_lost;

  // Router-queue drop counter sampled per bucket (all flows).
  std::vector<std::uint64_t> queue_drops;

  // Frame presentation timestamps at the client display (primary game-
  // stream flow).
  std::vector<Time> frame_times;

  /// Per-link series, in topology link order.  Always at least one entry
  /// (the synthesized default's "bottleneck" link).
  std::vector<LinkTrace> links;

  /// Fleet population digest (hybrid-fidelity runs); active stays false
  /// for scenarios with an empty fleet spec.
  net::FleetResult fleet;

  // -- per-flow lookups -----------------------------------------------------
  /// The trace of flow `id`, or nullptr when the mix has no such flow.
  [[nodiscard]] const FlowTrace* flow(net::FlowId id) const;
  /// The trace of the named link, or nullptr when there is no such link.
  [[nodiscard]] const LinkTrace* link(std::string_view name) const;
  /// Mean goodput of flow `id` over [from, to); 0 for unknown flows.
  [[nodiscard]] double mean_flow_mbps(net::FlowId id, Time from,
                                      Time to) const;

  // -- window helpers (from/to are absolute sim times) ---------------------
  [[nodiscard]] double mean_bitrate_mbps(const std::vector<double>& series,
                                         Time from, Time to) const;
  [[nodiscard]] double mean_game_mbps(Time from, Time to) const {
    return mean_bitrate_mbps(game_mbps, from, to);
  }
  [[nodiscard]] double mean_tcp_mbps(Time from, Time to) const {
    return mean_bitrate_mbps(tcp_mbps, from, to);
  }
  [[nodiscard]] double sd_bitrate_mbps(const std::vector<double>& series,
                                       Time from, Time to) const;
  [[nodiscard]] double mean_rtt_ms(Time from, Time to) const;
  [[nodiscard]] double sd_rtt_ms(Time from, Time to) const;
  /// Game packet loss fraction over the window.
  [[nodiscard]] double game_loss_in(Time from, Time to) const;
  /// Presented frames per second over the window.
  [[nodiscard]] double fps_over(Time from, Time to) const;

  [[nodiscard]] std::size_t bucket_of(Time t) const;
};

/// Samples the testbed's cumulative counters at bucket boundaries and
/// assembles a RunTrace.
///
/// Nothing runs per packet: links count the bytes they hand to their far
/// end (net::Link::deliveries()), each link's egress demux counts every
/// flow's deliveries in its route entry (net::FlowDemux::delivered()), and
/// the queues count their drops.  A periodic sampler reads those counters
/// at every boundary k * interval.  Bucket b of a goodput/utilisation
/// series holds exactly the bytes whose delivery time t has
/// bucket_of(t) == b, whatever order the sampler and same-instant
/// deliveries ran in (DeliveryCounter::bytes_before); cumulative packet
/// and drop entries hold the counts at the sampler event.
class TraceCollectors {
 public:
  /// What the collectors know about one flow of the mix.
  struct FlowInfo {
    net::FlowId id = 0;
    std::string name;
    FlowKind kind = FlowKind::kBulkTcp;
  };

  /// Trace-memory policy for large mixes.  stride multiplies the sample
  /// interval (stride 1 = the historical cadence, bit-identical); when
  /// max_flow_series > 0 only the first that-many mix flows materialize
  /// per-flow series — the rest keep O(1) state and their bulk-TCP bytes
  /// fold into the aggregate tcp_mbps view at finalize.
  struct Policy {
    std::size_t stride = 1;
    std::size_t max_flow_series = 0;
  };

  TraceCollectors(sim::Simulator& sim, Time duration, Time sample_interval,
                  std::vector<FlowInfo> flows);
  TraceCollectors(sim::Simulator& sim, Time duration, Time sample_interval,
                  std::vector<FlowInfo> flows, Policy policy);

  /// Sample one topology link: per-link utilization/depth/drop series for
  /// everything it carries, plus per-flow goodput accounting for the flows
  /// in `terminal_flows` (the flows whose client-side hop this is, read
  /// from the link's egress demux — counting at the terminal hop keeps
  /// multi-hop flows from being double-counted).  Call once per link, in
  /// topology link order; both must outlive collection.
  void attach_link(const net::Link& link, const net::FlowDemux& egress,
                   std::vector<net::FlowId> terminal_flows);
  /// Sample `recv`'s counters for flow `id` each bucket.  Must outlive
  /// collection.
  void attach_game_receiver(net::FlowId id, const stream::StreamReceiver& recv);

  /// Start periodic counter sampling; call at t = 0 so samples land on
  /// the boundaries k * interval.
  void start();

  /// Build the final trace (call after the run completes).  `ping` / `recv`
  /// fill the legacy rtt / frame_times views (primary flows); either may be
  /// nullptr.
  [[nodiscard]] RunTrace finalize(const PingClient* ping,
                                  const stream::StreamReceiver* recv) const;

 private:
  /// Per-bucket byte counts built from a cumulative counter sampled at
  /// bucket boundaries.
  struct ByteSeries {
    std::vector<std::int64_t> buckets;
    std::int64_t closed = 0;  // bytes before the last sampled boundary

    /// The boundary ending `bucket` was reached with `before` cumulative
    /// bytes delivered before it.
    void close(std::size_t bucket, std::int64_t before) {
      buckets[bucket] += before - closed;
      closed = before;
    }
    /// buckets with everything delivered since the last boundary (`total`
    /// cumulative bytes) added to the bucket that boundary opened.
    [[nodiscard]] std::vector<std::int64_t> with_tail(std::size_t open,
                                                      std::int64_t total) const;
  };

  /// One flow's delivery counter at its terminal hop.  `slot` is the
  /// flow's tracked index, or tracked_ for untracked bulk-TCP flows (the
  /// residual aggregate).
  struct TerminalTap {
    const net::FlowDemux* egress = nullptr;
    net::FlowId flow = 0;
    std::size_t slot = 0;
  };

  struct LinkTap {
    std::string name;
    const net::Link* link = nullptr;
    ByteSeries util;                   // [bucket]
    std::vector<std::uint64_t> depth;  // [boundary]
    std::vector<std::uint64_t> drops;  // [boundary]
  };

  void sample_counters();
  /// Sum the terminal taps per slot (tracked flows, then the residual):
  /// bytes delivered before `boundary` (kTimeInfinite: all of them) and
  /// packets delivered so far.
  void sum_terminals(Time boundary, std::vector<std::int64_t>& bytes,
                     std::vector<std::uint64_t>& pkts) const;

  sim::Simulator& sim_;
  Time duration_;
  Time interval_;
  std::size_t n_buckets_;

  std::vector<FlowInfo> flows_;
  /// Flows with materialized series: the first min(max_flow_series, n)
  /// mix entries (all of them when the policy cap is 0).
  std::size_t tracked_;
  std::unordered_map<net::FlowId, std::size_t> flow_index_;

  // Indexed [flow]; slot tracked_ of flow_bytes_ is the residual: terminal
  // bulk-TCP bytes of untracked flows, folded into the aggregate tcp_mbps
  // view at finalize so top-K trims series, not throughput accounting.
  std::vector<ByteSeries> flow_bytes_;
  std::vector<std::vector<std::uint64_t>> recv_samples_;  // [flow][boundary]
  std::vector<std::vector<std::uint64_t>> lost_samples_;  // [flow][boundary]
  // Per-game-flow receiver taps, parallel to flows_ (nullptr elsewhere).
  std::vector<const stream::StreamReceiver*> receivers_;
  std::vector<TerminalTap> terminals_;

  std::vector<std::uint64_t> drops_;  // [boundary], all links
  std::vector<LinkTap> links_;

  /// The bucket the latest sampled boundary opened: where bytes delivered
  /// after it belong at finalize.
  std::size_t open_bucket_ = 0;
  // Per-sample scratch for sum_terminals (tracked_ + 1 slots).
  std::vector<std::int64_t> tap_bytes_;
  std::vector<std::uint64_t> tap_pkts_;

  sim::PeriodicTimer sampler_;
};

}  // namespace cgs::core
