// TCP Cubic (Ha, Rhee, Xu 2008; RFC 8312).
//
// Loss-based: the window follows a cubic function of time since the last
// congestion event, with a TCP-friendly (Reno-tracking) floor and fast
// convergence.  This is the algorithm the paper's iperf flow runs when
// configured "cubic" (Linux 5.4 default).
#pragma once

#include "tcp/congestion_control.hpp"

namespace cgs::tcp {

class Cubic final : public CongestionControl {
 public:
  explicit Cubic(ByteSize mss);

  void on_ack(const AckEvent& ack) override;
  void on_loss_episode(const LossEvent& loss) override;
  void on_rto(Time now) override;

  [[nodiscard]] ByteSize cwnd() const override;
  [[nodiscard]] std::string_view name() const override { return "cubic"; }

  // Exposed for unit tests.
  [[nodiscard]] double cwnd_segments() const { return cwnd_seg_; }
  [[nodiscard]] bool in_slow_start() const { return cwnd_seg_ < ssthresh_seg_; }

 private:
  /// Cubic window (in segments) at time t since epoch start.
  [[nodiscard]] double w_cubic(double t_sec) const;
  void start_epoch(Time now);

  static constexpr double kBeta = 0.7;   // multiplicative decrease
  static constexpr double kC = 0.4;      // cubic scaling constant
  static constexpr double kInitCwnd = 10.0;

  ByteSize mss_;
  double cwnd_seg_ = kInitCwnd;
  double ssthresh_seg_ = 1e9;  // effectively infinite until first loss

  // Cubic epoch state.
  bool epoch_started_ = false;
  Time epoch_start_ = kTimeZero;
  double w_max_seg_ = 0.0;
  double w_last_max_seg_ = 0.0;
  double k_ = 0.0;  // time (s) for the cubic to return to w_max

  // TCP-friendly region estimate.
  double w_est_seg_ = 0.0;
  Time last_rtt_ = std::chrono::milliseconds(100);
};

}  // namespace cgs::tcp
