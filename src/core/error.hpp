// Simulation-error taxonomy.
//
// Every failure a sweep job can produce is classified into an ErrorClass
// for triage.  A job is deterministic, so every failure reproduces with its
// seed — a tripped watchdog, a violated invariant, a nonsensical scenario,
// a foreign exception, and a forked child's process death alike — and is
// recorded once, final.  A failure is its class and its what() message:
// the journal, the failure CSV and the triage table keep nothing else, so
// whatever context a thrower knows (cell, seed, sim-time, flow) goes into
// the message text.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>

namespace cgs::core {

/// Failure taxonomy for sweep jobs and triage tables.
enum class ErrorClass : std::uint8_t {
  kWatchdog = 0,      // sim::WatchdogError — livelocked run, deterministic
  kInvariant = 1,     // InvariantViolation — conservation/sanity audit trip
  kScenario = 2,      // invalid or inconsistent configuration
  kUnclassified = 3,  // anything else (a foreign exception)
  // Process-level classes reported by the forked-isolation supervisor
  // (core/proc.hpp) — the job's *process* died, not its simulation logic.
  kCrash = 4,     // child killed by a fatal signal (SIGSEGV, SIGABRT, ...)
  kTimeout = 5,   // supervisor wall-clock deadline expired; child SIGKILLed
  kResource = 6,  // resource cap: rlimit kill (SIGXCPU), OOM, bad_alloc
};

[[nodiscard]] std::string_view to_string(ErrorClass c);

/// Process-level failures the forked-mode supervisor observes from outside
/// the child.  The one decision they drive: tools/replay re-runs them in a
/// forked sandbox, since in-process a reproducing one would take the tool
/// down.
[[nodiscard]] constexpr bool is_process_failure(ErrorClass c) {
  return c == ErrorClass::kCrash || c == ErrorClass::kTimeout ||
         c == ErrorClass::kResource;
}

/// A conservation law or sanity bound the auditor checked did not hold —
/// the run's aggregates cannot be trusted.
class InvariantViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Classify an in-flight exception: InvariantViolation maps to kInvariant,
/// sim::WatchdogError to kWatchdog, std::bad_alloc to kResource,
/// std::invalid_argument / std::logic_error to kScenario, everything else
/// to kUnclassified.
[[nodiscard]] ErrorClass classify(const std::exception& e);

/// Decode a journal byte back into an ErrorClass (unknown values map to
/// kUnclassified rather than trusting on-disk data).
[[nodiscard]] ErrorClass error_class_from_byte(std::uint8_t b);

}  // namespace cgs::core
