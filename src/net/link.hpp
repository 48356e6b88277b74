// Point-to-point links.
//
// Link models a store-and-forward interface: a queue discipline in front of
// a serialising transmitter (capacity) followed by propagation delay — the
// `tbf + netem` pair on the paper's Raspberry Pi router.  DelayLine models
// an uncongested path segment: pure delay, no queueing (used for reverse
// paths and the per-flow delay padding that equalises RTTs at 16.5 ms).
//
// A link reports every arrival, drop, transmission and delivery to its
// PacketObservers (net/queue.hpp), in subscription order.  With none
// subscribed a tap costs one empty-list check and a drop calls nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace cgs::net {

/// Cumulative deliveries at one point of a path, kept by plain increments
/// where packets complete their hop, so observers sample counters instead
/// of running a callback per packet.
///
/// bytes_before(t) is exact at any moment by which every delivery earlier
/// than `t` has been counted and none later than `t` — a sampler event at
/// `t` — whatever order the events at instant `t` itself ran in: the bytes
/// of the latest delivery instant are kept apart so a boundary sample can
/// exclude same-instant deliveries that fired before it.
struct DeliveryCounter {
  std::uint64_t pkts = 0;
  std::int64_t bytes = 0;
  Time last_at = kTimeZero;     // instant of the latest delivery
  std::int64_t last_bytes = 0;  // bytes delivered at last_at

  void add(std::int32_t size_bytes, Time now) {
    ++pkts;
    bytes += size_bytes;
    last_bytes = (now == last_at ? last_bytes : 0) + size_bytes;
    last_at = now;
  }

  /// Bytes delivered strictly before `t` (see above for when it is exact).
  [[nodiscard]] std::int64_t bytes_before(Time t) const {
    return last_at == t ? bytes - last_bytes : bytes;
  }
};

class Link final : public PacketSink {
 public:
  /// `dst` must outlive the link.
  Link(sim::Simulator& sim, std::string name, Bandwidth rate, Time prop_delay,
       std::unique_ptr<Queue> queue, PacketSink* dst);

  void handle_packet(PacketPtr pkt) override;

  [[nodiscard]] Queue& queue() { return *queue_; }
  [[nodiscard]] const Queue& queue() const { return *queue_; }
  /// Subscribe `observer` to every tap of this link, its queue's drops
  /// included.  It must outlive the link's traffic.
  void add_observer(PacketObserver* observer);
  [[nodiscard]] Bandwidth rate() const { return rate_; }
  [[nodiscard]] Time prop_delay() const { return prop_delay_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Packets/bytes that finished serialisation onto the wire (counted when
  /// the transmitter frees, one propagation delay before delivery).
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_pkts_; }
  [[nodiscard]] ByteSize bytes_delivered() const { return delivered_bytes_; }
  /// Packets handed to the destination at the far end, counted at their
  /// delivery instant (the trace collectors' per-link utilisation source).
  [[nodiscard]] const DeliveryCounter& deliveries() const {
    return deliveries_;
  }
  /// Cumulative bytes that arrived at the queue (including later drops) —
  /// the packet-demand signal the fluid capacity-sharing rule differences
  /// per tick.
  [[nodiscard]] ByteSize bytes_arrived() const { return arrived_bytes_; }

  /// Change capacity mid-run (used by capacity-variation scenarios).
  void set_rate(Bandwidth rate) { rate_ = rate; }

  /// Aggregate fluid background load currently served by this link
  /// (hybrid-fidelity fleet layer).  While non-zero, packets serialize at
  /// packet_rate() = rate() - load; zero restores the exact legacy service
  /// model, bit for bit.
  void set_fluid_load(Bandwidth load) { fluid_load_ = load; }
  /// Serialization capacity left for the packet path under the current
  /// fluid load, floored at max(rate/50, 1 kb/s) so full-fidelity flows
  /// are never starved outright by background fluid.
  [[nodiscard]] Bandwidth packet_rate() const {
    const std::int64_t floor_bps =
        std::max<std::int64_t>(rate_.bits_per_sec() / 50, 1000);
    const std::int64_t left = rate_.bits_per_sec() - fluid_load_.bits_per_sec();
    return Bandwidth(std::max(left, floor_bps));
  }

 private:
  /// Receives typed propagation-end events: deliver tap + downstream
  /// forward.  A distinct sink from the Link itself (whose handle_packet
  /// means "arrive at the queue").
  struct DeliveryEnd final : PacketSink {
    explicit DeliveryEnd(Link* link) : link(link) {}
    void handle_packet(PacketPtr pkt) override;
    Link* link;
  };

  /// Receives typed serialisation-end events (the in-flight packet rides
  /// the event itself): frees the transmitter, starts propagation, sends
  /// the next queued packet.  At most one is pending per link.
  struct SerDone final : PacketSink {
    explicit SerDone(Link* link) : link(link) {}
    void handle_packet(PacketPtr pkt) override;
    Link* link;
  };

  /// The queue's observer while the link has any: forwards each drop to
  /// every link observer.
  struct DropFanout final : PacketObserver {
    explicit DropFanout(Link* link) : link(link) {}
    void on_drop(const Packet& p, DropReason r, Time t) override;
    Link* link;
  };

  void try_transmit();

  sim::Simulator& sim_;
  std::string name_;
  Bandwidth rate_;
  Time prop_delay_;
  std::unique_ptr<Queue> queue_;
  PacketSink* dst_;
  std::vector<PacketObserver*> observers_;
  DeliveryEnd delivery_end_{this};
  SerDone ser_done_{this};
  DropFanout drop_fanout_{this};
  bool busy_ = false;
  std::uint64_t delivered_pkts_ = 0;
  ByteSize delivered_bytes_{0};
  DeliveryCounter deliveries_;
  ByteSize arrived_bytes_{0};
  Bandwidth fluid_load_{0};
};

/// Infinite-capacity fixed-delay segment.
class DelayLine final : public PacketSink {
 public:
  /// `dst` must outlive the delay line.
  DelayLine(sim::Simulator& sim, Time delay, PacketSink* dst)
      : sim_(sim), delay_(delay), dst_(dst) {}

  void handle_packet(PacketPtr pkt) override;

  [[nodiscard]] Time delay() const { return delay_; }

 private:
  sim::Simulator& sim_;
  Time delay_;
  PacketSink* dst_;
};

}  // namespace cgs::net
