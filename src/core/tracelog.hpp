// Per-packet event logging — the simulator's equivalent of saving the
// Wireshark capture, plus a small analyzer for per-flow statistics.
//
// Attach a TraceLog to any Links as their packet observer; every arrival /
// drop / transmit / delivery it selects is recorded with its timestamp,
// flow, class and size. Records can be exported to CSV (plot-ready) or
// digested into per-flow summaries (bytes, packets, drops, goodput,
// inter-arrival jitter).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"

namespace cgs::core {

enum class TraceEvent : std::uint8_t { kArrival, kDrop, kTransmit, kDeliver };

[[nodiscard]] std::string_view to_string(TraceEvent e);

struct TraceRecord {
  Time at;
  TraceEvent event;
  net::FlowId flow;
  net::TrafficClass klass;
  std::int32_t size_bytes;
  std::uint64_t uid;
};

/// Per-flow digest over a trace (or a time window of it).
struct FlowSummary {
  net::FlowId flow = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::int64_t bytes_delivered = 0;
  Time first_delivery = kTimeInfinite;
  Time last_delivery = kTimeZero;

  /// Goodput over the flow's active span.
  [[nodiscard]] Bandwidth goodput() const;
  /// Fraction of arrivals dropped.
  [[nodiscard]] double drop_rate() const;
  /// Mean absolute deviation of delivery inter-arrival times.
  Time jitter = kTimeZero;
};

class TraceLog final : public net::PacketObserver {
 public:
  static constexpr unsigned kDropsAndDeliveries =
      (1u << unsigned(TraceEvent::kDrop)) |
      (1u << unsigned(TraceEvent::kDeliver));

  /// `events` selects which tap points are recorded (bitmask of
  /// 1<<TraceEvent) on every link the log is attached to.
  explicit TraceLog(unsigned events = kDropsAndDeliveries) : events_(events) {}
  TraceLog(const TraceLog&) = delete;  // links hold its address
  TraceLog& operator=(const TraceLog&) = delete;

  /// Observe `link`. The TraceLog must outlive the link's traffic.
  void attach(net::Link& link) { link.add_observer(this); }

  void on_arrival(const net::Packet& p, Time t) override {
    record(TraceEvent::kArrival, p, t);
  }
  void on_drop(const net::Packet& p, net::DropReason, Time t) override {
    record(TraceEvent::kDrop, p, t);
  }
  void on_transmit(const net::Packet& p, Time t) override {
    record(TraceEvent::kTransmit, p, t);
  }
  void on_deliver(const net::Packet& p, Time t) override {
    record(TraceEvent::kDeliver, p, t);
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  /// Reserve space up front for long captures.
  void reserve(std::size_t n) { records_.reserve(n); }

  /// Write all records as CSV: t_s, event, flow, class, size, uid.
  /// Throws std::runtime_error naming the file when it cannot be opened
  /// or written in full.
  void write_csv(const std::string& path) const;

  /// Digest records in [from, to) into per-flow summaries.
  [[nodiscard]] std::vector<FlowSummary> summarize(
      Time from = kTimeZero, Time to = kTimeInfinite) const;

 private:
  void record(TraceEvent e, const net::Packet& p, Time t);

  unsigned events_;
  std::vector<TraceRecord> records_;
};

}  // namespace cgs::core
