#include "net/codel.hpp"

#include <cmath>

namespace cgs::net {

// ---------------------------------------------------------------- CoDel ----

void CodelQueue::enqueue(PacketPtr pkt, Time now) {
  if (bytes_ + pkt->size() > params_.capacity) {
    report_drop(*pkt, DropReason::kOverflow, now);
    return;
  }
  pkt->enqueued = now;
  bytes_ += pkt->size();
  q_.push_back(std::move(pkt));
}

PacketPtr CodelQueue::pop_head() {
  if (q_.empty()) return nullptr;
  PacketPtr pkt = q_.pop_front();
  bytes_ -= pkt->size();
  return pkt;
}

Time CodelQueue::control_law(Time t) const {
  return t + Time(std::int64_t(double(params_.interval.count()) /
                               std::sqrt(double(count_))));
}

bool CodelQueue::should_drop(const Packet& pkt, Time now) {
  const Time sojourn = now - pkt.enqueued;
  if (sojourn < params_.target || bytes_ < ByteSize(1514)) {
    first_above_time_ = kTimeZero;
    return false;
  }
  if (first_above_time_ == kTimeZero) {
    first_above_time_ = now + params_.interval;
    return false;
  }
  return now >= first_above_time_;
}

PacketPtr CodelQueue::dequeue(Time now) {
  PacketPtr pkt = pop_head();
  if (!pkt) {
    dropping_ = false;
    return nullptr;
  }

  if (dropping_) {
    if (!should_drop(*pkt, now)) {
      dropping_ = false;
      return pkt;
    }
    while (now >= drop_next_ && dropping_) {
      report_drop(*pkt, DropReason::kAqmMark, now);
      ++count_;
      pkt = pop_head();
      if (!pkt) {
        dropping_ = false;
        return nullptr;
      }
      if (!should_drop(*pkt, now)) {
        dropping_ = false;
        return pkt;
      }
      drop_next_ = control_law(drop_next_);
    }
    return pkt;
  }

  if (should_drop(*pkt, now)) {
    report_drop(*pkt, DropReason::kAqmMark, now);
    pkt = pop_head();
    dropping_ = true;
    // RFC 8289: restart from a count related to the last drop episode if it
    // was recent, to resume at roughly the prior drop rate.
    if (count_ > 2 && now - drop_next_ < 8 * params_.interval) {
      count_ = count_ - 2;
    } else {
      count_ = 1;
    }
    last_count_ = count_;
    drop_next_ = control_law(now);
  }
  return pkt;
}

// ------------------------------------------------------------- FQ-CoDel ----

FqCodelQueue::SubQueue& FqCodelQueue::sub(FlowId flow) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) {
    it = flows_.emplace(flow, SubQueue(params_)).first;
    it->second.codel.set_observer(this);
  }
  return it->second;
}

void FqCodelQueue::on_drop(const Packet& p, DropReason r, Time t) {
  if (!in_enqueue_) {
    bytes_ -= p.size();
    --count_;
  }
  report_drop(p, r, t);
}

void FqCodelQueue::enqueue(PacketPtr pkt, Time now) {
  const FlowId flow = pkt->flow;
  SubQueue& s = sub(flow);
  const ByteSize sz = pkt->size();
  const std::size_t before = s.codel.packet_count();
  in_enqueue_ = true;
  s.codel.enqueue(std::move(pkt), now);
  in_enqueue_ = false;
  if (s.codel.packet_count() == before) return;  // overflowed inside CoDel
  bytes_ += sz;
  ++count_;
  if (!s.active) {
    s.active = true;
    s.deficit = quantum_.bytes();
    new_flows_.push_back(flow);
  }
}

PacketPtr FqCodelQueue::dequeue(Time now) {
  for (int guard = 0; guard < 1'000'000; ++guard) {
    cgs::util::RingBuffer<FlowId>* list = nullptr;
    if (!new_flows_.empty()) {
      list = &new_flows_;
    } else if (!old_flows_.empty()) {
      list = &old_flows_;
    } else {
      return nullptr;
    }

    const FlowId flow = list->front();
    SubQueue& s = sub(flow);

    if (s.deficit <= 0) {
      s.deficit += quantum_.bytes();
      (void)list->pop_front();
      old_flows_.push_back(flow);
      continue;
    }

    PacketPtr pkt = s.codel.dequeue(now);
    if (!pkt) {
      // Empty: a new flow that empties is recycled to old once (RFC 8290);
      // an old flow that empties goes inactive.
      (void)list->pop_front();
      if (list == &new_flows_) {
        old_flows_.push_back(flow);
      } else {
        s.active = false;
      }
      continue;
    }
    bytes_ -= pkt->size();
    --count_;
    s.deficit -= pkt->size().bytes();
    return pkt;
  }
  return nullptr;
}

}  // namespace cgs::net
