// Shared exit-code taxonomy for the CLI tools (sweep, replay, sweepd,
// sweepctl).  Scripts — the CI jobs first among them — branch on these
// values, so they are pinned by tests/tools/exit_codes_test.cpp: append
// new codes, never renumber.
#pragma once

namespace cgs::tools {

enum ExitCode : int {
  /// Clean run (and verification passed, where requested).
  kExitOk = 0,
  /// A verification pass failed: streaming != batch, or a watched sweep
  /// ended in a failed state.
  kExitVerifyFailed = 1,
  /// Usage error: unknown flag, unknown grid, malformed argument.
  kExitUsage = 2,
  /// The sweep completed but some jobs failed (triage table printed).
  kExitJobsFailed = 3,
  /// Interrupted (SIGINT/SIGTERM): partial results journaled, resumable.
  kExitInterrupted = 4,
  /// Refused to resume or replay: the journal belongs to a different grid.
  kExitJournalMismatch = 5,
  /// The sweep daemon could not be reached (connect/reconnect exhausted)
  /// or refused the request.
  kExitUnavailable = 6,
};

}  // namespace cgs::tools
