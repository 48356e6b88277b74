#include "sim/simulator.hpp"

#include <algorithm>
#include <sstream>

namespace cgs::sim {

void Simulator::watchdog_fail(const char* budget) const {
  std::ostringstream os;
  os << "simulation watchdog: " << budget << " exceeded after " << processed_
     << " events at sim time " << to_seconds(now_) << " s with "
     << queue_.size() << " pending events (likely livelock)";
  throw WatchdogError(os.str(), now_, processed_);
}

void Simulator::check_wall_budget() {
  const auto now = std::chrono::steady_clock::now();
  if (!wall_started_) {
    wall_started_ = true;
    wall_start_ = now;
    wall_last_check_ = now;
    wall_countdown_ = wall_interval_;
    return;
  }
  const double elapsed =
      std::chrono::duration<double>(now - wall_start_).count();
  if (elapsed > watchdog_wall_s_) {
    std::ostringstream os;
    os << "simulation watchdog: wall-clock budget of " << watchdog_wall_s_
       << " s exceeded (" << elapsed << " s elapsed) after " << processed_
       << " events at sim time " << to_seconds(now_) << " s with "
       << queue_.size() << " pending events (run is wedged or starved)";
    throw WatchdogError(os.str(), now_, processed_, watchdog_wall_s_, elapsed);
  }
  // Adapt the interval so detection latency tracks the budget, not the
  // per-event cost: slow events pull checks closer, fast events push them
  // apart (bounded, so overhead stays one clock read per <=4096 events).
  const double since_last =
      std::chrono::duration<double>(now - wall_last_check_).count();
  if (since_last < watchdog_wall_s_ / 16) {
    wall_interval_ = std::min(wall_interval_ * 2, kWallIntervalMax);
  } else if (since_last > watchdog_wall_s_ / 8) {
    wall_interval_ = std::max(wall_interval_ / 2, kWallIntervalMin);
  }
  wall_last_check_ = now;
  wall_countdown_ = wall_interval_;
}

EventId Simulator::reschedule_at(EventId id, Time at) {
  return queue_.reschedule(id, std::max(at, now_));
}

EventId Simulator::reschedule_current_in(Time delay) {
  return queue_.reschedule_current(now_ + std::max(delay, kTimeZero));
}

void Simulator::run_events(Time deadline) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    const Time t = queue_.next_time();
    if (t > deadline) break;
    now_ = t;
    if (watchdog_events_ != 0 && processed_ >= watchdog_events_) {
      watchdog_fail("event budget");
    }
    if (now_ > watchdog_time_) {
      watchdog_fail("sim-time budget");
    }
    if (wall_armed_ && --wall_countdown_ <= 0) check_wall_budget();
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
