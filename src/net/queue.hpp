// Bottleneck queue disciplines.
//
// DropTailQueue is the paper's router configuration (`tc tbf limit <bytes>`):
// a byte-limited FIFO that drops arriving packets when full.  CoDel and
// FQ-CoDel (paper §5 future work) live in codel.hpp.  PacketObserver is the
// one per-packet tap interface: links report arrivals, transmissions and
// deliveries through it, queues report drops.
#pragma once

#include "net/packet.hpp"
#include "util/ring_buffer.hpp"
#include "util/units.hpp"

namespace cgs::net {

/// Why a queue dropped a packet.
enum class DropReason : std::uint8_t { kOverflow, kAqmMark };

/// Opt-in per-packet observer — the simulator's Wireshark (TraceLog,
/// SimAuditor, tests).  Every hook is a no-op by default, so an observer
/// overrides only the events it wants.  Observers are held as raw
/// pointers and must outlive the traffic they watch; the trace collectors
/// read counters instead and observe nothing.
class PacketObserver {
 public:
  virtual ~PacketObserver() = default;
  /// Packet handed to the queue (before any drop decision).
  virtual void on_arrival(const Packet&, Time) {}
  /// Packet dropped by the queue discipline.
  virtual void on_drop(const Packet&, DropReason, Time) {}
  /// Packet starts serialisation onto the wire.
  virtual void on_transmit(const Packet&, Time) {}
  /// Packet fully delivered to the far end.
  virtual void on_deliver(const Packet&, Time) {}
};

/// Abstract queue discipline feeding a Link.
class Queue {
 public:
  virtual ~Queue() = default;

  /// Hand a packet to the queue; the queue may drop it (reported to the
  /// observer). `now` is the arrival time.
  virtual void enqueue(PacketPtr pkt, Time now) = 0;

  /// Next packet to transmit, or nullptr when empty. AQM disciplines may
  /// drop internally during dequeue.
  virtual PacketPtr dequeue(Time now) = 0;

  [[nodiscard]] virtual ByteSize byte_length() const = 0;
  [[nodiscard]] virtual std::size_t packet_count() const = 0;
  [[nodiscard]] bool empty() const { return packet_count() == 0; }

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Where drops are reported besides drops_total(); nullptr (the
  /// default) reports nowhere.  Must outlive the queue's traffic.
  void set_observer(PacketObserver* observer) { observer_ = observer; }

  [[nodiscard]] std::uint64_t drops_total() const { return drops_; }

 protected:
  void report_drop(const Packet& pkt, DropReason reason, Time now) {
    ++drops_;
    if (observer_ != nullptr) observer_->on_drop(pkt, reason, now);
  }

 private:
  PacketObserver* observer_ = nullptr;
  std::uint64_t drops_ = 0;
};

/// Byte-limited FIFO with tail drop.
class DropTailQueue final : public Queue {
 public:
  explicit DropTailQueue(ByteSize capacity) : capacity_(capacity) {}

  void enqueue(PacketPtr pkt, Time now) override;
  PacketPtr dequeue(Time now) override;

  [[nodiscard]] ByteSize byte_length() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_count() const override { return q_.size(); }
  [[nodiscard]] ByteSize capacity() const { return capacity_; }
  [[nodiscard]] std::string_view name() const override { return "droptail"; }

 private:
  ByteSize capacity_;
  ByteSize bytes_{0};
  util::RingBuffer<PacketPtr> q_;
};

}  // namespace cgs::net
