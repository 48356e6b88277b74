// TCP BBR v1 (Cardwell et al., CACM 2017;
// draft-cardwell-iccrg-bbr-congestion-control-00).
//
// Model-based: estimates the bottleneck bandwidth (windowed max of delivery
// rate over 10 round trips) and the path's minimum RTT (windowed min over
// 10 s), paces at gain * BtlBw and caps inflight at cwnd_gain (2) * BDP —
// the cap the paper leans on to explain halved 7x-BDP queueing delays
// (§4.3, Table 4).
#pragma once

#include "tcp/congestion_control.hpp"
#include "util/filters.hpp"

namespace cgs::tcp {

class Bbr final : public CongestionControl {
 public:
  explicit Bbr(ByteSize mss, Time now = kTimeZero);

  void on_ack(const AckEvent& ack) override;
  void on_loss_episode(const LossEvent& loss) override;
  void on_rto(Time now) override;

  [[nodiscard]] ByteSize cwnd() const override;
  [[nodiscard]] Bandwidth pacing_rate() const override;
  [[nodiscard]] bool rate_driven() const override { return true; }
  [[nodiscard]] std::string_view name() const override { return "bbr"; }

  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt };
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] Bandwidth btl_bw() const;
  [[nodiscard]] Time rt_prop() const { return rt_prop_; }

 private:
  void update_round(const AckEvent& ack);
  void update_btl_bw(const AckEvent& ack);
  void update_rt_prop(const AckEvent& ack);
  void check_full_pipe(const AckEvent& ack);
  void check_drain(const AckEvent& ack);
  void update_probe_bw_cycle(const AckEvent& ack);
  void update_probe_rtt(const AckEvent& ack);
  [[nodiscard]] ByteSize bdp_bytes(double gain) const;
  void enter_probe_bw(Time now);

  static constexpr double kHighGain = 2.885;  // 2/ln(2)
  static constexpr double kDrainGain = 1.0 / kHighGain;
  static constexpr double kCwndGain = 2.0;
  static constexpr int kGainCycleLen = 8;
  static constexpr double kPacingGainCycle[kGainCycleLen] = {
      1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  static constexpr Time kRtPropFilterLen = std::chrono::seconds(10);
  static constexpr Time kProbeRttDuration = std::chrono::milliseconds(200);
  static constexpr int kBtlBwFilterRounds = 10;

  ByteSize mss_;
  Mode mode_ = Mode::kStartup;

  // Bandwidth filter is round-trip indexed; we keep (value, round) pairs in
  // a time-parameterised filter keyed by round count.
  WindowedMaxFilter<std::int64_t> bw_filter_{Time(kBtlBwFilterRounds)};
  std::uint64_t round_count_ = 0;
  ByteSize next_round_delivered_{0};
  bool round_start_ = false;

  Time rt_prop_ = kTimeInfinite;
  Time rt_prop_stamp_ = kTimeZero;
  bool rt_prop_expired_ = false;

  double pacing_gain_ = kHighGain;
  double cwnd_gain_ = kHighGain;

  // Startup full-pipe detection.
  bool filled_pipe_ = false;
  Bandwidth full_bw_ = Bandwidth::zero();
  int full_bw_count_ = 0;

  // ProbeBW cycle.
  int cycle_index_ = 0;
  Time cycle_stamp_ = kTimeZero;

  // ProbeRTT.
  Time probe_rtt_done_stamp_ = kTimeZero;
  bool probe_rtt_round_done_ = false;

  ByteSize inflight_latest_{0};
  bool in_retrans_recovery_ = false;
  ByteSize prior_cwnd_{0};
};

}  // namespace cgs::tcp
