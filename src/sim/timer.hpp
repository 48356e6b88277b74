// Timer helpers on top of Simulator: a one-shot rearmable timer (TCP RTO)
// and a periodic timer (frame ticks, feedback intervals, samplers).
#pragma once

#include <functional>

#include "sim/simulator.hpp"

namespace cgs::sim {

/// One-shot timer that can be (re)armed and cancelled. Safe to re-arm from
/// inside its own callback.
class OneShotTimer {
 public:
  OneShotTimer(Simulator& sim, std::function<void()> fn)
      : sim_(&sim), fn_(std::move(fn)) {}
  ~OneShotTimer() { cancel(); }
  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// Arm (or re-arm) to fire `delay` from now.
  void arm(Time delay);
  void cancel();
  [[nodiscard]] bool armed() const { return id_ != kInvalidEventId; }

 private:
  Simulator* sim_;
  std::function<void()> fn_;
  EventId id_ = kInvalidEventId;
};

/// Fixed-period repeating timer. Starts on start(), stops on stop() or
/// destruction. The callback runs once per period, first fire after one
/// period (or immediately if `fire_now`).
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Time period, std::function<void()> fn)
      : sim_(&sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start(bool fire_now = false);
  void stop();
  [[nodiscard]] bool running() const { return id_ != kInvalidEventId; }

 private:
  void fire();

  Simulator* sim_;
  Time period_;
  std::function<void()> fn_;
  EventId id_ = kInvalidEventId;
};

}  // namespace cgs::sim
