// CoDel (RFC 8289) and FQ-CoDel (RFC 8290) queue disciplines.
//
// The paper uses a drop-tail router and names FQ-CoDel as future work (§5);
// these implementations back the `ablation_aqm` bench that explores it.
#pragma once

#include <map>

#include "net/queue.hpp"
#include "util/ring_buffer.hpp"

namespace cgs::net {

struct CodelParams {
  Time target = std::chrono::milliseconds(5);     // acceptable sojourn
  Time interval = std::chrono::milliseconds(100); // sliding window
  ByteSize capacity = ByteSize(10 * 1500 * 100);  // hard byte limit
};

/// Controlled-delay AQM: drops at dequeue when sojourn time has exceeded
/// `target` for at least `interval`, at a rate increasing with sqrt(count).
class CodelQueue final : public Queue {
 public:
  explicit CodelQueue(CodelParams params) : params_(params) {}

  void enqueue(PacketPtr pkt, Time now) override;
  PacketPtr dequeue(Time now) override;

  [[nodiscard]] ByteSize byte_length() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_count() const override { return q_.size(); }
  [[nodiscard]] std::string_view name() const override { return "codel"; }

 private:
  /// Pop the head and decide whether CoDel would drop it.
  PacketPtr pop_head();
  [[nodiscard]] Time control_law(Time t) const;
  bool should_drop(const Packet& pkt, Time now);

  CodelParams params_;
  util::RingBuffer<PacketPtr> q_;
  ByteSize bytes_{0};

  // CoDel state machine (RFC 8289 §5).
  Time first_above_time_ = kTimeZero;
  Time drop_next_ = kTimeZero;
  std::uint32_t count_ = 0;
  std::uint32_t last_count_ = 0;
  bool dropping_ = false;
};

/// Flow-queued CoDel: packets hash to per-flow sub-queues, each running the
/// CoDel state machine, serviced by deficit round robin with new-flow
/// priority (RFC 8290, simplified: no hash collisions since FlowIds are
/// unique; quantum = one MTU).  It observes its sub-queues' drops, keeps
/// the aggregate accounting and reports each drop as its own.
class FqCodelQueue final : public Queue, private PacketObserver {
 public:
  explicit FqCodelQueue(CodelParams params, ByteSize quantum = ByteSize(1514))
      : params_(params), quantum_(quantum) {}

  void enqueue(PacketPtr pkt, Time now) override;
  PacketPtr dequeue(Time now) override;

  [[nodiscard]] ByteSize byte_length() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_count() const override { return count_; }
  [[nodiscard]] std::string_view name() const override { return "fq_codel"; }

 private:
  struct SubQueue {
    CodelQueue codel;
    std::int64_t deficit = 0;
    bool active = false;
    explicit SubQueue(CodelParams p) : codel(p) {}
  };

  SubQueue& sub(FlowId flow);
  /// A sub-queue dropped `p` (overflow at enqueue or AQM at dequeue).
  void on_drop(const Packet& p, DropReason r, Time t) override;

  CodelParams params_;
  ByteSize quantum_;
  std::map<FlowId, SubQueue> flows_;
  util::RingBuffer<FlowId> new_flows_;
  util::RingBuffer<FlowId> old_flows_;
  ByteSize bytes_{0};
  std::size_t count_ = 0;
  // True while a sub-queue enqueue runs: an overflow drop there concerns a
  // packet not yet counted in the aggregate, so on_drop must not decrement
  // the aggregate counters.
  bool in_enqueue_ = false;
};

}  // namespace cgs::net
