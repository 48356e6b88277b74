// The simulation clock and scheduler every component hangs off.
//
// Single-threaded, no global state: construct one Simulator per run; tests
// run thousands of them in-process.
#pragma once

#include <algorithm>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace cgs::sim {

/// Thrown by run()/run_until() when the event budget is exceeded: the run
/// is almost certainly livelocked (events rescheduling each other without
/// making progress), so abort with a diagnostic instead of spinning.
class WatchdogError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
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

  /// Run every event due at or before `deadline`, then leave the clock at
  /// the deadline (or where it was, if that is later).
  void run_until(Time deadline);

  /// Run until the event queue is empty. The clock is left at the time of
  /// the last event.
  void run();

  /// Arm the watchdog: run()/run_until() throw WatchdogError before the
  /// event that would exceed `max_events` processed events (0 disables
  /// it).  The count spans every run()/run_until() call on this simulator,
  /// so the budget is exact and deterministic.
  void set_watchdog(std::uint64_t max_events) { watchdog_events_ = max_events; }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t processed_events() const { return processed_; }

 private:
  /// The loop behind run() and run_until(): dispatch events in order, one
  /// at a time, until the queue empties or the next event lies after
  /// `deadline`.  Every event is counted and checked against the event
  /// budget before it runs.
  void run_events(Time deadline);
  [[noreturn]] void watchdog_fail() const;

  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t processed_ = 0;
  std::uint64_t watchdog_events_ = 0;  // 0 = no event budget
};

}  // namespace cgs::sim
