// Packet observation taps — the simulator's Wireshark.
//
// Links expose a Sniffer for opt-in per-packet observers (TraceLog,
// SimAuditor, tests); the trace collectors read counters instead and
// subscribe to nothing.  Subscribers must outlive the link (the
// measurement layer guarantees this by owning both).
#pragma once

#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"

namespace cgs::net {

class Sniffer {
 public:
  using PacketFn = std::function<void(const Packet&, Time)>;
  using DropFn = std::function<void(const Packet&, DropReason, Time)>;

  /// Packet handed to the queue (before any drop decision).
  void on_arrival(PacketFn fn) { arrival_.push_back(std::move(fn)); }
  /// Packet dropped by the queue discipline.
  void on_drop(DropFn fn) { drop_.push_back(std::move(fn)); }
  /// Packet starts serialisation onto the wire.
  void on_transmit(PacketFn fn) { transmit_.push_back(std::move(fn)); }
  /// Packet fully delivered to the far end.
  void on_deliver(PacketFn fn) { deliver_.push_back(std::move(fn)); }

  void notify_arrival(const Packet& p, Time t) const { for (auto& f : arrival_) f(p, t); }
  void notify_drop(const Packet& p, DropReason r, Time t) const { for (auto& f : drop_) f(p, r, t); }
  void notify_transmit(const Packet& p, Time t) const { for (auto& f : transmit_) f(p, t); }
  void notify_deliver(const Packet& p, Time t) const { for (auto& f : deliver_) f(p, t); }

 private:
  std::vector<PacketFn> arrival_;
  std::vector<DropFn> drop_;
  std::vector<PacketFn> transmit_;
  std::vector<PacketFn> deliver_;
};

}  // namespace cgs::net
