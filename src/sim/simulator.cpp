#include "sim/simulator.hpp"

#include <algorithm>
#include <sstream>

namespace cgs::sim {

void Simulator::watchdog_fail() const {
  std::ostringstream os;
  os << "simulation watchdog: event budget exceeded after " << processed_
     << " events at sim time " << to_seconds(now_) << " s with "
     << queue_.size() << " pending events (likely livelock)";
  throw WatchdogError(os.str());
}

EventId Simulator::reschedule_at(EventId id, Time at) {
  return queue_.reschedule(id, std::max(at, now_));
}

EventId Simulator::reschedule_current_in(Time delay) {
  return queue_.reschedule_current(now_ + std::max(delay, kTimeZero));
}

void Simulator::run_events(Time deadline) {
  while (!queue_.empty()) {
    const Time t = queue_.next_time();
    if (t > deadline) break;
    now_ = t;
    if (watchdog_events_ != 0 && processed_ >= watchdog_events_) {
      watchdog_fail();
    }
    ++processed_;
    // Runs the callback in place in its slot: no move of the closure, and
    // reschedule_current_in() can re-arm it with zero churn.
    queue_.run_top();
  }
}

void Simulator::run_until(Time deadline) {
  run_events(deadline);
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() { run_events(kTimeInfinite); }

}  // namespace cgs::sim
