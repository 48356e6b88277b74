#include "sim/timer.hpp"

#include <algorithm>

namespace cgs::sim {

void OneShotTimer::arm(Time delay) {
  const Time expiry = sim_->now() + std::max(delay, kTimeZero);
  if (id_ != kInvalidEventId) {
    // Re-arm while pending (the per-ACK TCP RTO restart): move the event
    // in place instead of cancel + fresh push.
    const EventId moved = sim_->reschedule_at(id_, expiry);
    if (moved != kInvalidEventId) {
      id_ = moved;
      return;
    }
  }
  id_ = sim_->schedule_at(expiry, [this] {
    id_ = kInvalidEventId;
    fn_();
  });
}

void OneShotTimer::cancel() {
  if (id_ != kInvalidEventId) {
    sim_->cancel(id_);
    id_ = kInvalidEventId;
  }
}

void PeriodicTimer::start(bool fire_now) {
  stop();
  if (fire_now) {
    id_ = sim_->schedule_in(kTimeZero, [this] { fire(); });
  } else {
    id_ = sim_->schedule_in(period_, [this] { fire(); });
  }
}

void PeriodicTimer::stop() {
  if (id_ != kInvalidEventId) {
    sim_->cancel(id_);
    id_ = kInvalidEventId;
  }
}

void PeriodicTimer::fire() {
  // Re-arm before the callback so the callback may call stop(). The
  // rescheduled event reuses this closure in its slot: no cancel, no
  // push, no callback reconstruction per tick.
  id_ = sim_->reschedule_current_in(period_);
  fn_();
}

}  // namespace cgs::sim
