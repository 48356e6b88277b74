#include "stream/sender.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cgs::stream {

StreamSender::StreamSender(sim::Simulator& sim, net::PacketFactory& factory,
                           Options opts, FrameSourceConfig encoder_cfg,
                           std::unique_ptr<RateController> controller,
                           Pcg32 rng)
    : sim_(sim),
      opts_(opts),
      encoder_(sim, encoder_cfg, rng,
               [this](const Frame& f) { on_frame(f); }),
      packetizer_(factory, opts.flow),
      controller_(std::move(controller)),
      pace_timer_(sim, [this] { drain_send_queue(); }),
      base_owd_ns_(opts.base_delay_window) {
  assert(controller_ && "StreamSender requires a rate controller");
  apply(controller_->current());
}

void StreamSender::start() {
  assert(out_ != nullptr && "set_output() before start()");
  running_ = true;
  next_send_time_ = sim_.now();
  encoder_.start();
}

void StreamSender::stop() {
  running_ = false;
  encoder_.stop();
  send_queue_.clear();
  pace_timer_.cancel();
}

void StreamSender::apply(const ControlDecision& d) {
  // The controller targets a wire bitrate (what the paper measures at the
  // router); the encoder produces payload bytes, so deduct the per-packet
  // IP/UDP overhead share.
  constexpr double kPayloadShare =
      double(net::kRtpPayload) / double(net::kRtpWire);
  encoder_.set_bitrate(d.target_bitrate * kPayloadShare);
  encoder_.set_fps(d.target_fps);
}

void StreamSender::on_frame(const Frame& frame) {
  (void)packetizer_.packetize(frame, sim_.now(), send_queue_);
  drain_send_queue();
}

void StreamSender::drain_send_queue() {
  while (!send_queue_.empty()) {
    const Time now = sim_.now();
    if (now < next_send_time_) {
      pace_timer_.arm(next_send_time_ - now);
      return;
    }
    net::PacketPtr pkt = send_queue_.pop_front();
    // Stamp the wire-send time (WebRTC abs-send-time semantics): one-way
    // delay must measure the network, not the sender's own pacing queue.
    pkt->created = now;
    bytes_sent_ += pkt->size();

    const Bandwidth pace_rate = encoder_.bitrate() * opts_.burst_factor;
    next_send_time_ = std::max(next_send_time_, now) +
                      pace_rate.transmit_time(pkt->size());
    out_->handle_packet(std::move(pkt));
  }
}

void StreamSender::handle_packet(net::PacketPtr pkt) {
  const auto* fb = std::get_if<net::FeedbackHeader>(&pkt->header);
  if (fb == nullptr || !running_) return;

  // A report covering zero packets (total blackout) carries no signal: its
  // OWD fields read zero (which would corrupt the base-delay min filter)
  // and its loss reads zero (which would let the controller ramp into a
  // dead link).  Hold the current rate until data flows again.
  if (fb->window_recv_pkts == 0) {
    ++stalled_windows_;
    resync_loss_ = true;
    return;
  }

  base_owd_ns_.update(fb->min_owd.count(), sim_.now());

  double loss = std::isfinite(fb->window_loss_fraction)
                    ? std::clamp(fb->window_loss_fraction, 0.0, 1.0)
                    : 0.0;
  if (resync_loss_) {
    // First report after a blackout: its loss figure aggregates the whole
    // outage's sequence gap, measuring the outage rather than the recovered
    // path.  Resync the loss baseline (delay and rate are still genuine) so
    // one stale gap does not slam the controller to its floor.
    loss = 0.0;
    resync_loss_ = false;
  }

  FeedbackSnapshot snap;
  snap.now = sim_.now();
  snap.send_rate = encoder_.bitrate();
  snap.recv_rate = Bandwidth(std::max<std::int64_t>(fb->recv_rate_bps, 0));
  snap.loss_fraction = loss;
  snap.base_delay = Time(base_owd_ns_.get_or(fb->min_owd.count()));
  snap.queuing_delay =
      std::max(kTimeZero, fb->avg_owd - snap.base_delay);
  snap.valid = true;
  last_qdelay_ = snap.queuing_delay;

  apply(controller_->on_feedback(snap));
}

}  // namespace cgs::stream
