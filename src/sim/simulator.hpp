// The simulation clock and scheduler every component hangs off.
//
// Single-threaded, no global state: construct one Simulator per run; tests
// run thousands of them in-process.
#pragma once

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace cgs::sim {

/// Thrown by run()/run_until() when a watchdog budget is exceeded: the run is
/// almost certainly livelocked (events rescheduling each other without
/// making progress), so abort with a diagnostic instead of spinning.
/// Carries the trip point as structured fields so failure triage and
/// deterministic replay can report sim-time without parsing what().
class WatchdogError : public std::runtime_error {
 public:
  explicit WatchdogError(const std::string& msg, Time sim_time = kTimeZero,
                         std::uint64_t events_processed = 0,
                         double wall_budget_s = 0, double wall_elapsed_s = 0)
      : std::runtime_error(msg),
        sim_time_(sim_time),
        events_(events_processed),
        wall_budget_s_(wall_budget_s),
        wall_elapsed_s_(wall_elapsed_s) {}

  /// Simulation clock when the budget tripped.
  [[nodiscard]] Time sim_time() const { return sim_time_; }
  /// Events processed when the budget tripped.
  [[nodiscard]] std::uint64_t events_processed() const { return events_; }
  /// Wall-clock budget in seconds (0 when a sim budget tripped, not wall).
  [[nodiscard]] double wall_budget_s() const { return wall_budget_s_; }
  /// Wall-clock seconds actually elapsed when the budget tripped.
  [[nodiscard]] double wall_elapsed_s() const { return wall_elapsed_s_; }

 private:
  Time sim_time_ = kTimeZero;
  std::uint64_t events_ = 0;
  double wall_budget_s_ = 0;
  double wall_elapsed_s_ = 0;
};

class Simulator {
 public:
  /// With an arena, the event queue's slabs are carved from it instead of
  /// the heap; the arena must outlive the simulator.
  explicit Simulator(util::Arena* arena = nullptr) : queue_(arena) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (duration since start).
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule at absolute simulation time; clamps to `now` if in the past.
  /// The callable is constructed directly in its event slot (one closure
  /// construction, no SboFunction move chain).
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  EventId schedule_at(Time at, F&& fn) {
    return queue_.push(std::max(at, now_), std::forward<F>(fn));
  }

  /// Schedule `delay` from now (negative delays clamp to zero).
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  EventId schedule_in(Time delay, F&& fn) {
    return schedule_at(now_ + std::max(delay, kTimeZero), std::forward<F>(fn));
  }

  /// Schedule delivery of `pkt` to `sink` at an absolute time (clamped to
  /// `now`).  Typed fast path: no closure and no handle.
  void push_packet_at(Time at, net::PacketSink* sink, net::PacketPtr pkt) {
    queue_.push_packet(std::max(at, now_), sink, std::move(pkt));
  }

  /// push_packet_at with a now-relative delay (clamped to zero).
  void push_packet_in(Time delay, net::PacketSink* sink, net::PacketPtr pkt) {
    push_packet_at(now_ + std::max(delay, kTimeZero), sink, std::move(pkt));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Move a pending event to a new absolute time (clamped to `now`),
  /// keeping its callback in place. Returns the replacement handle, or
  /// kInvalidEventId if the event already fired or was cancelled.
  EventId reschedule_at(EventId id, Time at);

  /// From inside an event callback: re-arm the currently executing event
  /// `delay` from now, reusing its stored callback with no allocation or
  /// callback churn (the PeriodicTimer fast path).
  EventId reschedule_current_in(Time delay);

  /// Run events until the queue empties or `deadline` passes. The clock is
  /// left at min(deadline, time of last event).
  void run_until(Time deadline);

  /// Run until the event queue is empty. The clock is left at the time of
  /// the last event.
  void run();

  /// Request run()/run_until() to return after the current event.
  void stop() { stopped_ = true; }

  /// Arm the watchdog: run()/run_until() throw WatchdogError once more than
  /// `max_events` events have been processed, the clock passes
  /// `max_sim_time`, or more than `max_wall_seconds` of real time elapse
  /// while running.  0 / kTimeInfinite / 0 disable the respective budget.
  ///
  /// Event and sim-time budgets are exact and deterministic.  The wall
  /// budget is environmental by nature (it depends on host speed), so it is
  /// checked only every kWallCheckInterval events to keep steady_clock
  /// reads off the hot path; its clock starts at the first event processed
  /// after arming.  Unlike the other two budgets it catches livelocks that
  /// burn real time without burning events — a handler spinning inside one
  /// callback.
  void set_watchdog(std::uint64_t max_events, Time max_sim_time = kTimeInfinite,
                    double max_wall_seconds = 0) {
    watchdog_events_ = max_events;
    watchdog_time_ = max_sim_time;
    watchdog_wall_s_ = max_wall_seconds;
    wall_armed_ = max_wall_seconds > 0;
    wall_started_ = false;
    wall_countdown_ = 0;  // first check starts the wall clock
    wall_interval_ = 64;
  }

  [[nodiscard]] std::uint64_t watchdog_event_budget() const {
    return watchdog_events_;
  }
  [[nodiscard]] double watchdog_wall_budget_s() const {
    return watchdog_wall_s_;
  }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t processed_events() const { return processed_; }

 private:
  /// Bounds on the adaptive check interval for the wall budget: between
  /// steady_clock reads at least kWallIntervalMin and at most
  /// kWallIntervalMax events pass.  The interval doubles while checks land
  /// closer together than budget/16 of wall time (fast events: one clock
  /// read per 4096 events) and halves when they land further apart than
  /// budget/8 (slow events: detection latency stays a small fraction of
  /// the budget either way).
  static constexpr std::int64_t kWallIntervalMin = 1;
  static constexpr std::int64_t kWallIntervalMax = 4096;

  /// The loop behind run() and run_until(): dispatch events in order, one
  /// at a time, until the queue empties, stop() is called, or the next
  /// event lies after `deadline`.  Every event is counted and checked
  /// against the watchdog before it runs.
  void run_events(Time deadline);
  [[noreturn]] void watchdog_fail(const char* budget) const;
  /// Refill the countdown (adaptively), lazily start the wall clock, and
  /// throw when the elapsed wall time exceeds the budget.
  void check_wall_budget();

  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  std::uint64_t watchdog_events_ = 0;   // 0 = no event budget
  Time watchdog_time_ = kTimeInfinite;  // kTimeInfinite = no time budget
  double watchdog_wall_s_ = 0;          // 0 = no wall budget
  bool wall_armed_ = false;
  bool wall_started_ = false;
  std::int64_t wall_countdown_ = 0;
  std::int64_t wall_interval_ = 64;
  std::chrono::steady_clock::time_point wall_start_{};
  std::chrono::steady_clock::time_point wall_last_check_{};
};

}  // namespace cgs::sim
