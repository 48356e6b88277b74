#include "tcp/tcp_sender.hpp"

#include <algorithm>
#include <cassert>

namespace cgs::tcp {

TcpSender::TcpSender(sim::Simulator& sim, net::PacketFactory& factory,
                     Options opts, std::unique_ptr<CongestionControl> cc)
    : sim_(sim),
      factory_(factory),
      opts_(opts),
      cc_(std::move(cc)),
      rto_timer_(sim, [this] { on_rto_fire(); }),
      pace_timer_(sim, [this] { try_send(); }) {
  assert(cc_ && "TcpSender requires a congestion control instance");
}

void TcpSender::start() {
  assert(out_ != nullptr && "set_output() before start()");
  running_ = true;
  app_limit_ = ~std::uint64_t{0};  // unlimited bulk (iperf mode)
  next_send_time_ = sim_.now();
  try_send();
}

void TcpSender::send_bounded(ByteSize bytes, std::function<void()> on_complete) {
  assert(out_ != nullptr && "set_output() before send_bounded()");
  if (app_limit_ == ~std::uint64_t{0}) app_limit_ = next_seq_;
  app_limit_ += std::uint64_t(bytes.bytes());
  on_complete_ = std::move(on_complete);
  running_ = true;
  next_send_time_ = std::max(next_send_time_, sim_.now());
  try_send();
}

void TcpSender::stop() {
  running_ = false;
  sampler_.set_app_limited(inflight_, sim_.now());
}

void TcpSender::try_send() {
  const ByteSize cwnd = cc_->cwnd();
  for (;;) {
    const Time now = sim_.now();
    if (pacing_enabled() && now < next_send_time_) {
      pace_timer_.arm(next_send_time_ - now);
      return;
    }

    // 1) Retransmissions of marked-lost segments take priority.
    std::uint64_t seq_to_send = 0;
    Segment* seg = nullptr;
    if (lost_pending_ > 0) {
      for (std::size_t i = 0; i < segs_.size(); ++i) {
        auto& e = segs_[i];
        if (e.seg.lost && !e.seg.sacked) {
          seq_to_send = e.seq;
          seg = &e.seg;
          break;
        }
      }
    }

    if (seg == nullptr) {
      // 2) New data, if the window and the application allow.
      if (!running_ || next_seq_ >= app_limit_) {
        if (next_seq_ >= app_limit_ && inflight_.bytes() > 0) {
          sampler_.set_app_limited(inflight_, sim_.now());
        }
        return;
      }
      const auto len = std::uint32_t(std::min<std::uint64_t>(
          std::uint64_t(opts_.mss.bytes()), app_limit_ - next_seq_));
      if (inflight_ + ByteSize(len) > cwnd) return;
      assert(segs_.empty() || next_seq_ > segs_.back().seq);
      segs_.push_back(
          {next_seq_, Segment{len, {}, false, false, false, false}});
      seq_to_send = next_seq_;
      seg = &segs_.back().seg;
      next_seq_ += len;
    } else if (inflight_ + ByteSize(seg->len) > cwnd && inflight_.bytes() > 0) {
      // Window full even for the retransmission; wait for more ACKs.
      return;
    }

    transmit(seq_to_send, *seg);

    if (pacing_enabled()) {
      const Bandwidth rate = cc_->pacing_rate();
      const Time gap = rate.transmit_time(
          ByteSize(seg->len + opts_.wire_overhead));
      next_send_time_ = std::max(next_send_time_, sim_.now()) + gap;
    }
  }
}

void TcpSender::transmit(std::uint64_t seq, Segment& seg) {
  if (seg.lost) {
    seg.lost = false;
    seg.retransmitted = true;
    ++retransmits_;
    if (lost_pending_ > 0) --lost_pending_;
  }
  seg.tx = sampler_.on_send(sim_.now(), inflight_);
  if (!seg.counted_inflight) {
    inflight_ += ByteSize(seg.len);
    seg.counted_inflight = true;
  }

  net::TcpHeader h;
  h.seq = seq;
  h.len = seg.len;
  h.is_ack = false;
  h.tx_id = next_tx_id_++;
  auto pkt = factory_.make(opts_.flow, net::TrafficClass::kTcpData,
                           std::int32_t(seg.len) + opts_.wire_overhead,
                           sim_.now(), h);
  out_->handle_packet(std::move(pkt));
  // RFC 6298 5.1: start the timer when it is not running. Re-arming on
  // every transmission would push the deadline out indefinitely and let a
  // lost retransmission wedge the connection.
  if (!rto_timer_.armed()) arm_rto();
}

void TcpSender::arm_rto() {
  // Exponential backoff with a Linux-like ceiling (TCP_RTO_MAX-style):
  // across a multi-second blackout the timer walks 2x per firing up to
  // kMaxRto and then holds, so the first probe after the path heals is at
  // most kMaxRto away — backoff never grows into a livelock-like stall.
  const Time rto = rtt_.rto() * (std::int64_t(1) << std::min(rto_backoff_, 10));
  rto_timer_.arm(std::min(rto, kMaxRto));
}

void TcpSender::handle_packet(net::PacketPtr pkt) {
  const auto* h = std::get_if<net::TcpHeader>(&pkt->header);
  if (h == nullptr || !h->is_ack) return;

  AckEvent ev;
  ev.now = sim_.now();
  ev.delivered_total = sampler_.delivered_total();

  const std::uint64_t prev_una = snd_una_;
  process_cumulative_ack(*h, ev);
  process_sack(*h, ev);

  // Dup-ACK bookkeeping: an ACK that moves nothing forward is a duplicate.
  if (h->ack == prev_una && ev.acked_bytes.bytes() == 0 && !segs_.empty()) {
    ++dupacks_;
  } else if (h->ack > prev_una) {
    dupacks_ = 0;
    rto_backoff_ = 0;
  }

  detect_loss(*h);

  // Recovery exit.
  if (in_recovery_ && snd_una_ >= recover_point_) {
    in_recovery_ = false;
    cc_->on_exit_recovery(ev.now);
  }

  ev.inflight = inflight_;
  ev.delivered_total = sampler_.delivered_total();
  ev.in_recovery = in_recovery_;
  cc_->on_ack(ev);

  if (segs_.empty()) {
    rto_timer_.cancel();
  } else if (h->ack > prev_una) {
    arm_rto();
  }

  // Bounded-transfer completion (HTTP response fully ACKed).
  if (app_limit_ != ~std::uint64_t{0} && snd_una_ >= app_limit_ &&
      on_complete_) {
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    cb();
  }
  try_send();
}

void TcpSender::process_cumulative_ack(const net::TcpHeader& h, AckEvent& ev) {
  if (h.ack <= snd_una_) return;

  RateSample best;
  Time best_sent = kTimeZero;
  while (!segs_.empty()) {
    auto& front = segs_.front();
    const std::uint64_t end = front.seq + front.seg.len;
    if (end > h.ack) break;
    Segment& seg = front.seg;

    if (seg.counted_inflight) {
      inflight_ -= ByteSize(seg.len);
      seg.counted_inflight = false;
    }
    if (!seg.sacked) {
      // SACKed bytes were already credited to the sampler; and only
      // segments delivered *now* may produce an RTT sample — a SACKed
      // segment's data arrived long before this cumulative ACK.
      const RateSample rs =
          sampler_.on_ack(seg.tx, ByteSize(seg.len), sim_.now());
      if (rs.valid && seg.tx.sent_time >= best_sent) {
        best = rs;
        best_sent = seg.tx.sent_time;
      }
      ev.acked_bytes += ByteSize(seg.len);
      if (!seg.retransmitted) {
        const Time rtt = sim_.now() - seg.tx.sent_time;  // Karn's rule
        rtt_.update(rtt);
        min_rtt_ = min_rtt_ == kTimeZero ? rtt : std::min(min_rtt_, rtt);
        sampler_.set_min_interval(min_rtt_);
        ev.rtt = rtt;
      }
    }
    if (seg.lost && lost_pending_ > 0) --lost_pending_;
    if (seg.sacked) sacked_bytes_ -= seg.len;
    segs_.pop_front();
  }
  snd_una_ = std::max(snd_una_, h.ack);
  if (best.valid) ev.rate = best;
}

std::size_t TcpSender::first_at_or_after(std::uint64_t s) const {
  std::size_t lo = 0, hi = segs_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (segs_[mid].seq < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void TcpSender::process_sack(const net::TcpHeader& h, AckEvent& ev) {
  for (const auto& blk : h.sacks) {
    if (blk.empty()) continue;
    for (std::size_t i = first_at_or_after(blk.start);
         i < segs_.size() && segs_[i].seq + segs_[i].seg.len <= blk.end; ++i) {
      Segment& seg = segs_[i].seg;
      if (seg.sacked) continue;
      seg.sacked = true;
      sacked_bytes_ += seg.len;
      if (seg.lost && lost_pending_ > 0) --lost_pending_;
      if (seg.counted_inflight) {
        inflight_ -= ByteSize(seg.len);
        seg.counted_inflight = false;
      }
      const RateSample rs =
          sampler_.on_ack(seg.tx, ByteSize(seg.len), sim_.now());
      if (rs.valid) ev.rate = rs;
      ev.acked_bytes += ByteSize(seg.len);
      if (!seg.retransmitted) {
        const Time rtt = sim_.now() - seg.tx.sent_time;
        rtt_.update(rtt);
        min_rtt_ = min_rtt_ == kTimeZero ? rtt : std::min(min_rtt_, rtt);
        sampler_.set_min_interval(min_rtt_);
        ev.rtt = rtt;
      }
    }
  }
}

void TcpSender::detect_loss(const net::TcpHeader& h) {
  (void)h;
  bool found_loss = false;

  // RFC 6675-style: an un-SACKed segment with >= 3 SACKed segments above it
  // is lost — but a segment already retransmitted may only be re-marked by
  // an RTO (prevents spurious-retransmission storms).  The scan can only
  // mark something when at least 3 MSS are currently SACKed, which is never
  // the case on the in-order fast path — skip the O(window) walk there.
  if (sacked_bytes_ >= 3 * opts_.mss.bytes()) {
    std::int64_t sacked_above = 0;
    for (std::size_t i = segs_.size(); i-- > 0;) {
      Segment& seg = segs_[i].seg;
      if (seg.sacked) {
        sacked_above += seg.len;
      } else if (!seg.lost && !seg.retransmitted &&
                 sacked_above >= 3 * opts_.mss.bytes()) {
        mark_lost(segs_[i].seq, seg);
        found_loss = true;
      }
    }
  }

  // Classic triple-dupACK fast retransmit: fires once on the third dupACK,
  // not on every subsequent duplicate.
  if (dupacks_ == 3 && !segs_.empty()) {
    auto& front = segs_.front();
    if (!front.seg.lost && !front.seg.sacked && !front.seg.retransmitted) {
      mark_lost(front.seq, front.seg);
      found_loss = true;
    }
  }

  // NewReno partial ACK: a cumulative ACK that advances but stays below the
  // recovery point exposes the next hole as lost too.
  if (in_recovery_ && snd_una_ < recover_point_ && dupacks_ == 0 &&
      !segs_.empty()) {
    auto& front = segs_.front();
    if (front.seq == snd_una_ && !front.seg.lost && !front.seg.sacked &&
        !front.seg.retransmitted) {
      mark_lost(front.seq, front.seg);
      found_loss = true;
    }
  }

  if (found_loss && !in_recovery_) enter_recovery();
  if (found_loss && in_recovery_) try_send();
}

void TcpSender::mark_lost(std::uint64_t seq, Segment& seg) {
  (void)seq;
  if (seg.lost || seg.sacked) return;
  seg.lost = true;
  ++lost_pending_;
  if (seg.counted_inflight) {
    inflight_ -= ByteSize(seg.len);
    seg.counted_inflight = false;
  }
}

void TcpSender::enter_recovery() {
  in_recovery_ = true;
  recover_point_ = next_seq_;
  ++loss_episodes_;
  LossEvent ev;
  ev.now = sim_.now();
  ev.inflight = inflight_;
  ev.lost_bytes = opts_.mss;
  cc_->on_loss_episode(ev);
}

void TcpSender::on_rto_fire() {
  if (segs_.empty()) return;
  ++rto_count_;
  ++rto_backoff_;
  // Everything unacked is presumed lost (no forward progress).
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    auto& e = segs_[i];
    if (!e.seg.sacked) mark_lost(e.seq, e.seg);
  }
  dupacks_ = 0;
  in_recovery_ = true;
  recover_point_ = next_seq_;
  cc_->on_rto(sim_.now());
  next_send_time_ = sim_.now();
  try_send();
  if (!segs_.empty()) arm_rto();
}

}  // namespace cgs::tcp
