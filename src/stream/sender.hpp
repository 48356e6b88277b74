// Game-streaming server: encoder + packetiser + pacer + rate control.
//
// Consumes receiver feedback (FeedbackHeader packets) and retunes the
// encoder through the pluggable RateController — the per-system model.
#pragma once

#include <memory>

#include "net/packet.hpp"
#include "sim/timer.hpp"
#include "stream/controller.hpp"
#include "stream/frame_source.hpp"
#include "stream/packetizer.hpp"
#include "util/filters.hpp"
#include "util/ring_buffer.hpp"

namespace cgs::stream {

class StreamSender final : public net::PacketSink {
 public:
  struct Options {
    net::FlowId flow = 0;
    /// Packets of one frame are paced at this multiple of the target
    /// bitrate, so a frame occupies roughly 1/burst_factor of its interval
    /// (game streams send sub-frame bursts, per Xu & Claypool 2021).
    double burst_factor = 1.9;
    /// Window for tracking the base (uncongested) one-way delay.
    Time base_delay_window = std::chrono::seconds(60);
  };

  StreamSender(sim::Simulator& sim, net::PacketFactory& factory, Options opts,
               FrameSourceConfig encoder_cfg,
               std::unique_ptr<RateController> controller, Pcg32 rng);

  /// Downstream path entry; must outlive the sender.
  void set_output(net::PacketSink* out) { out_ = out; }

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Feedback packets arrive here (wired from the upstream path).
  void handle_packet(net::PacketPtr pkt) override;

  [[nodiscard]] Bandwidth target_bitrate() const { return encoder_.bitrate(); }
  [[nodiscard]] double target_fps() const { return encoder_.fps(); }
  [[nodiscard]] RateController& controller() { return *controller_; }
  [[nodiscard]] ByteSize bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] net::FlowId flow() const { return opts_.flow; }
  [[nodiscard]] Time last_queuing_delay() const { return last_qdelay_; }
  /// Feedback reports that covered zero received packets (link outage);
  /// the controller is frozen for those windows rather than fed zeros.
  [[nodiscard]] std::uint64_t stalled_windows() const {
    return stalled_windows_;
  }

 private:
  void on_frame(const Frame& frame);
  void drain_send_queue();
  void apply(const ControlDecision& d);

  sim::Simulator& sim_;
  Options opts_;
  net::PacketSink* out_ = nullptr;

  FrameSource encoder_;
  Packetizer packetizer_;
  std::unique_ptr<RateController> controller_;

  // Packetized, not yet paced out.
  util::RingBuffer<net::PacketPtr> send_queue_;
  sim::OneShotTimer pace_timer_;
  Time next_send_time_ = kTimeZero;
  bool running_ = false;

  WindowedMinFilter<std::int64_t> base_owd_ns_;
  Time last_qdelay_ = kTimeZero;
  std::uint64_t stalled_windows_ = 0;
  // Set while recovering from a blackout: the next non-empty report's loss
  // figure spans the outage gap and must not be fed to the controller.
  bool resync_loss_ = false;

  ByteSize bytes_sent_{0};
};

}  // namespace cgs::stream
