// Simulation invariant auditor.
//
// A net::PacketObserver on one link that checks, at every queue event,
// the conservation laws the simulation must obey:
// bytes that arrived at the bottleneck either got dropped, got
// transmitted, or are still sitting in the queue — exactly.  It also
// bounds queue occupancy by the configured capacity, keeps per-flow
// counters sane (a flow can never drop or transmit more than arrived),
// and — when the path has no reordering impairment — checks that RTP
// sequence numbers leave the bottleneck strictly increasing per flow.
//
// The auditor only *reads* packets from the link's taps: it draws no RNG
// values and schedules no events, so traces are bit-identical with the
// audit on or off.  A violated invariant throws InvariantViolation whose
// message names the cell, seed, sim-time and flow where it tripped,
// turning a silent accounting bug into a classified, replayable sweep
// failure.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/error.hpp"
#include "net/link.hpp"
#include "util/units.hpp"

namespace cgs::core {

class SimAuditor final : public net::PacketObserver {
 public:
  struct Options {
    /// Queue capacity bound; ByteSize(0) skips the upper-bound check
    /// (fq_codel reports aggregate occupancy across sub-queues).
    ByteSize queue_capacity{0};
    /// Check per-flow RTP sequence monotonicity at the bottleneck's
    /// transmitter.  Must be off when the downstream path can duplicate or
    /// reorder (netem-style impairment) — those violations are legitimate.
    bool check_sequences = true;
    // Failure context, written into any InvariantViolation's message.
    std::string cell_label;
    std::uint64_t seed = 0;
  };

  explicit SimAuditor(Options opts) : opts_(std::move(opts)) {}
  SimAuditor(const SimAuditor&) = delete;
  SimAuditor& operator=(const SimAuditor&) = delete;

  /// Observe `link`.  The link must outlive the auditor's last callback
  /// (the testbed owns both).
  void attach(net::Link& link);

  // The taps it checks (public so tests can forge events).
  void on_arrival(const net::Packet& p, Time t) override;
  void on_drop(const net::Packet& p, net::DropReason r, Time t) override;
  void on_transmit(const net::Packet& p, Time t) override;

  /// End-of-run settlement: whatever arrived and was neither dropped nor
  /// transmitted must still be queued, and the link cannot have delivered
  /// more packets than the auditor saw transmitted.
  void final_check() const;

  /// Total invariant evaluations so far (tests assert the audit actually
  /// ran; ~4 per packet event).
  [[nodiscard]] std::uint64_t checks_run() const { return checks_; }

  [[nodiscard]] ByteSize arrived_bytes() const { return arrived_; }
  [[nodiscard]] ByteSize dropped_bytes() const { return dropped_; }
  [[nodiscard]] ByteSize transmitted_bytes() const { return transmitted_; }

 private:
  struct FlowState {
    ByteSize arrived{0};
    ByteSize dropped{0};
    ByteSize transmitted{0};
    bool saw_rtp = false;
    std::uint32_t last_rtp_seq = 0;
  };

  void check_occupancy(Time t, net::FlowId flow);
  void check_flow(const FlowState& st, net::FlowId flow, Time t);
  /// Throw `[invariant] cell '…' seed N t=…s flow F: msg`, leaving out
  /// an empty cell, seed 0, t = kTimeInfinite (not known) and flow 0.
  [[noreturn]] void fail(const std::string& msg, Time t,
                         net::FlowId flow) const;

  Options opts_;
  const net::Link* link_ = nullptr;

  ByteSize arrived_{0};
  ByteSize dropped_{0};
  ByteSize transmitted_{0};
  std::uint64_t transmitted_pkts_ = 0;
  mutable std::uint64_t checks_ = 0;
  std::unordered_map<net::FlowId, FlowState> flows_;
};

}  // namespace cgs::core
