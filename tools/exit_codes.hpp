// Shared exit-code taxonomy for the CLI tools (sweep, replay).  Scripts —
// the CI jobs first among them — branch on these values, so they are
// pinned by tests/tools/exit_codes_test.cpp: append new codes, never
// renumber.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace cgs::tools {

enum ExitCode : int {
  /// Clean run (and verification passed, where requested).
  kExitOk = 0,
  /// A verification pass failed: streaming != batch, or a replay did not
  /// reproduce its journal record.
  kExitVerifyFailed = 1,
  /// Usage error: unknown flag, unknown grid, malformed argument; also a
  /// journal that is not one, or cannot be read or written, and an output
  /// CSV that cannot be written in full.
  kExitUsage = 2,
  /// The sweep completed but some jobs failed (triage table printed).
  kExitJobsFailed = 3,
  /// Interrupted (SIGINT/SIGTERM): partial results journaled, resumable.
  kExitInterrupted = 4,
  /// Refused to resume or replay: the journal belongs to a different grid.
  kExitJournalMismatch = 5,
  // 6 stays unassigned: a retired code is never reused.
};

/// The value of a numeric flag (`value` is the text after "--flag=") as a
/// whole decimal number in [min, max].  Anything else (empty, signed,
/// trailing text, out of range) prints the flag and the value and exits
/// with kExitUsage.
inline std::uint64_t whole_arg(const char* flag, const char* value,
                               std::uint64_t min, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE || v < min || v > max) {
    std::fprintf(stderr,
                 "invalid %s value '%s' (want a whole number >= %llu)\n", flag,
                 value, static_cast<unsigned long long>(min));
    std::exit(kExitUsage);
  }
  return v;
}

/// whole_arg for a quantity that may be fractional (seconds, megabytes):
/// the whole token must be a finite decimal number >= 0.  Anything else
/// (empty, signed, trailing text, nan, inf) prints the flag and the value
/// and exits with kExitUsage.
inline double real_arg(const char* flag, const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      !std::isfinite(v)) {
    std::fprintf(stderr, "invalid %s value '%s' (want a number >= 0)\n", flag,
                 value);
    std::exit(kExitUsage);
  }
  return v;
}

}  // namespace cgs::tools
