// Packet-level TCP bulk sender.
//
// Models the parts of a Linux TCP stack that shape bottleneck dynamics:
// byte-sequence segments, cumulative ACK + SACK scoreboard, dup-ACK fast
// retransmit with NewReno-style partial-ACK recovery, RTO with exponential
// backoff, Karn's rule for RTT samples, delivery-rate sampling, and optional
// pacing (BBR).  No handshake/teardown — flows start hot, like an iperf
// bulk download already in progress.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.hpp"
#include "sim/timer.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/rate_sampler.hpp"
#include "tcp/rtt_estimator.hpp"
#include "util/ring_buffer.hpp"

namespace cgs::tcp {

class TcpSender final : public net::PacketSink {
 public:
  /// Ceiling on the backed-off retransmission timeout (Linux TCP_RTO_MAX
  /// defaults to 120 s; we use a tighter bound sized for simulation runs).
  static constexpr Time kMaxRto = std::chrono::seconds(60);

  struct Options {
    net::FlowId flow = 0;
    ByteSize mss{net::kTcpMss};
    std::int32_t wire_overhead = net::kIpTcpOverhead;
  };

  TcpSender(sim::Simulator& sim, net::PacketFactory& factory, Options opts,
            std::unique_ptr<CongestionControl> cc);

  /// Downstream path entry (router or access delay line). Must be set
  /// before start(); must outlive the sender.
  void set_output(net::PacketSink* out) { out_ = out; }

  /// Begin (or resume) bulk transmission of unlimited data.
  void start();
  /// Stop generating new data; in-flight segments drain normally.
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Queue `bytes` more application data and (re)start transmission; when
  /// everything queued so far is cumulatively ACKed, `on_complete` fires
  /// (HTTP-response semantics — used by the DASH video client).
  void send_bounded(ByteSize bytes, std::function<void()> on_complete);

  /// ACKs arrive here (wired from the upstream path).
  void handle_packet(net::PacketPtr pkt) override;

  [[nodiscard]] CongestionControl& cc() { return *cc_; }
  [[nodiscard]] const CongestionControl& cc() const { return *cc_; }
  [[nodiscard]] ByteSize inflight() const { return inflight_; }
  [[nodiscard]] ByteSize bytes_acked() const { return ByteSize(std::int64_t(snd_una_)); }
  [[nodiscard]] std::uint64_t retransmits_total() const { return retransmits_; }
  [[nodiscard]] std::uint64_t loss_episodes_total() const { return loss_episodes_; }
  [[nodiscard]] std::uint64_t rto_total() const { return rto_count_; }
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] net::FlowId flow() const { return opts_.flow; }

 private:
  struct Segment {
    std::uint32_t len = 0;
    TxRecord tx;               // rate-sampler snapshot from last transmit
    bool retransmitted = false;
    bool sacked = false;
    bool lost = false;          // marked for retransmission
    bool counted_inflight = false;
  };

  /// One scoreboard entry: the segment starting at byte `seq`.
  struct ScoreEntry {
    std::uint64_t seq = 0;
    Segment seg;
  };

  void try_send();
  /// Index of the first scoreboard entry with seq >= s; size() if none.
  [[nodiscard]] std::size_t first_at_or_after(std::uint64_t s) const;
  /// Transmit (or retransmit) the segment starting at `seq`.
  void transmit(std::uint64_t seq, Segment& seg);
  void process_cumulative_ack(const net::TcpHeader& h, AckEvent& ev);
  void process_sack(const net::TcpHeader& h, AckEvent& ev);
  void detect_loss(const net::TcpHeader& h);
  void enter_recovery();
  void mark_lost(std::uint64_t seq, Segment& seg);
  void arm_rto();
  void on_rto_fire();
  [[nodiscard]] bool pacing_enabled() const {
    return !cc_->pacing_rate().is_zero();
  }

  sim::Simulator& sim_;
  net::PacketFactory& factory_;
  Options opts_;
  std::unique_ptr<CongestionControl> cc_;
  net::PacketSink* out_ = nullptr;

  bool running_ = false;
  // Application byte limit (bounded transfers); ~0ULL = unlimited.
  std::uint64_t app_limit_ = ~std::uint64_t{0};
  std::function<void()> on_complete_;
  std::uint64_t next_seq_ = 0;   // next new byte to send
  std::uint64_t snd_una_ = 0;    // lowest unacked byte
  // Scoreboard, ordered by first byte: segments enter in sequence order
  // and leave from the front (cumulative ACK), so a ring holds them with
  // no per-segment allocation and stays binary-searchable by seq.
  util::RingBuffer<ScoreEntry> segs_;
  ByteSize inflight_{0};
  std::size_t lost_pending_ = 0;  // segments marked lost, not yet resent
  std::int64_t sacked_bytes_ = 0;  // bytes currently SACKed in the scoreboard

  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;

  RttEstimator rtt_;
  Time min_rtt_ = kTimeZero;  // lifetime minimum, guards rate samples
  RateSampler sampler_;
  sim::OneShotTimer rto_timer_;
  int rto_backoff_ = 0;

  sim::OneShotTimer pace_timer_;
  Time next_send_time_ = kTimeZero;
  std::uint64_t next_tx_id_ = 1;

  std::uint64_t retransmits_ = 0;
  std::uint64_t loss_episodes_ = 0;
  std::uint64_t rto_count_ = 0;
};

}  // namespace cgs::tcp
