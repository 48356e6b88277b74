// Sweep engine: one persistent worker pool over a whole parameter grid.
//
// The paper's artifacts (Fig 2-4, Tables 1/3-5) are grids of
// (system x CC algo x queue size x rate limit) cells, each averaged over
// many seeded runs.  A grid is a flat list of labelled SweepCells
// (tools/grids.hpp builds the paper's); its (cell, seed) jobs form one
// fixed cell-major list that every worker claims from through a shared
// cursor — no per-cell fork/join barrier, so late stragglers in one cell
// overlap with the next cell's runs.  Each finished RunTrace is folded
// into its cell's streaming ConditionAccumulator and freed immediately,
// bounding peak memory at O(cells + in-flight runs).  A single condition
// is a one-cell grid.
//
// One entry point, run_sweep: at its turn in its cell's seed order, each
// job is journaled, folded into the cell's aggregate or recorded as a
// failure, and counted — in one place, whichever thread delivers it.
//
// Determinism contract: job (cell, i) runs Testbed(cell.scenario with
// seed = cell.scenario.seed + i) — exactly what a serial Testbed loop over
// seeds seed, seed + 1, ... produces — and per-cell delivery is serialized
// in seed order (an internal reorder buffer parks out-of-order
// completions), so the streaming ConditionResult is bit-identical to batch
// summarize() over the same traces regardless of thread count or which
// worker ran which job.
//
// Crash safety: run_sweep can journal every finished (cell, seed) job to
// an append-only file (SweepOptions::journal_path, core/journal.hpp) and,
// on restart against the same grid, restore the journaled results instead
// of re-running them — folding them through the same seed-order delivery
// path, so a resumed sweep's ConditionResult is bit-identical to an
// uninterrupted one.  A resume keeps the same memory bound: it scans the
// journal without payloads and decodes each journaled trace only when its
// slot is delivered.  A stop flag (SweepOptions::stop) drains gracefully:
// in-flight jobs finish and are journaled, queued jobs stay queued, and
// the partial result comes back marked interrupted.  A failed journal
// write stops the pool the same way and reaches the caller as a
// JournalError.
//
// Fault isolation: with SweepOptions::isolation = kForked each job runs in
// a fork()ed child under per-job rlimits and a wall-clock deadline
// (core/proc.hpp), so a segfault, OOM, or wedge kills one child instead of
// the sweep.  The child ships its RunTrace over a pipe via the bit-exact
// journal serialization, and the parent folds it through the same
// seed-order delivery path — forked results are bit-identical to
// in-process ones at any thread count.
//
// Every job runs once, and every failure — a child's process death
// included — is final and kept: a job is deterministic, so running it
// again reproduces the failure.  A SweepFailure holds exactly what its
// journal record holds, so a resume reports the failures the uninterrupted
// sweep did; tools/replay --failed re-checks one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "core/error.hpp"
#include "core/proc.hpp"
#include "core/scenario.hpp"

namespace cgs::core {

/// One fully-resolved grid cell.
struct SweepCell {
  std::string label;
  Scenario scenario;
};

/// One failed (cell, seed) job, classified for triage: its journal record's
/// class and message, plus the cell it belongs to.
struct SweepFailure {
  std::size_t cell = 0;  // index into the cell list
  std::string cell_label;
  std::uint64_t seed = 0;
  std::string what;
  ErrorClass cls = ErrorClass::kUnclassified;
};

/// How each (cell, seed) job executes.
enum class Isolation : std::uint8_t {
  /// In the worker thread (the default): fastest, but a crashing or
  /// runaway job takes the whole sweep with it.
  kInProcess,
  /// In a fork()ed child per job under a supervisor (core/proc.hpp): a
  /// poisoned job costs one child, the sweep completes and records it.
  /// Results cross the pipe via the bit-exact RunTrace serialization, so
  /// forked sweeps are bit-identical to in-process ones.
  kForked,
};

/// Cross-thread progress summary (SweepOptions::on_snapshot): one
/// consistent reading of the sweep's counters, taken at a job's delivery —
/// what tools/sweep paints as its progress line.
struct ProgressSnapshot {
  int total = 0;     // jobs in the grid (cells x runs)
  int finished = 0;  // delivered in seed order, journaled ones included
  int failed = 0;    // failed jobs, journaled and fresh
  std::size_t cells = 0;           // cells in the grid
  std::size_t cells_finished = 0;  // cells with every job delivered
  /// Set on the one last snapshot, emitted when the pool has drained
  /// (complete or interrupted).
  bool final = false;
};

struct SweepOptions {
  int runs = 15;    // seeded repetitions per cell (paper: 15, §3.4)
  int threads = 0;  // 0 = hardware concurrency

  /// Progress reporting: called with a ProgressSnapshot once per delivered
  /// job, plus exactly once — final = true — after the pool drains, even
  /// when interrupted (not when run_sweep throws).  `finished` counts
  /// successes, failures AND journaled jobs, each when its slot is
  /// delivered in seed order, not when it finishes executing: the
  /// non-final snapshots read finished = 1, 2, ..., total.  Calls are
  /// serialized.  An exception stops the pool like a failed journal append
  /// and reaches the caller of run_sweep; the delivery it interrupted is
  /// already journaled.  Unset costs nothing.
  std::function<void(const ProgressSnapshot&)> on_snapshot;

  // --- fault isolation -----------------------------------------------------

  /// Execution mode; see Isolation.  Defaults to in-process.
  Isolation isolation = Isolation::kInProcess;

  /// Per-job resource caps, applied in the child (forked mode only):
  /// address-space and CPU rlimits plus a supervisor-enforced wall-clock
  /// deadline.  Zero fields are uncapped.
  proc::ResourceLimits limits;

  /// Graceful-drain flag: when it reads true, workers finish their
  /// in-flight job and stop pulling new ones.  The sweep returns a partial
  /// result with SweepReport::interrupted set (and, when journaling, every
  /// finished job safely on disk).  Typically flipped by a signal handler.
  const std::atomic<bool>* stop = nullptr;

  // --- journal and failure summary -----------------------------------------

  /// Non-empty enables crash-safe journaling: every finished job is
  /// appended (fsync'd) to this file, and a restart against the same grid
  /// resumes from it instead of re-running finished jobs.  A journal whose
  /// grid fingerprint does not match throws JournalMismatchError; a failed
  /// append throws JournalError (see run_sweep).
  std::string journal_path;
  /// fsync each journal record (the crash-safety guarantee).  Turn off
  /// only for benchmarks.
  bool journal_sync = true;
  /// Free-form provenance stored in the journal header (e.g. the CLI
  /// arguments that produced the grid), read back by tools/replay.
  std::string journal_note;

  /// run_sweep: throw std::runtime_error summarizing failures once all
  /// jobs drain (historical behaviour).  When false — or whenever the
  /// sweep was interrupted — run_sweep returns normally and callers read
  /// SweepResult::report for triage.
  bool throw_on_failure = true;
};

/// What happened during one run_sweep call.
struct SweepReport {
  /// Every failed job, journaled and fresh, in (cell, seed) order.
  std::vector<SweepFailure> failures;

  int total = 0;     // jobs in the grid (cells x runs)
  /// Jobs delivered in seed order: successes + failures + journaled.  A
  /// job that finished ahead of a lower seed still pending when a drain
  /// ended is not delivered, not counted and not journaled: a resume runs
  /// it again.
  int finished = 0;
  int succeeded = 0;  // fresh jobs that produced a trace this invocation
  int skipped = 0;    // jobs restored from the journal
  bool interrupted = false;  // stop flag drained the pool before the end

  /// Jobs still queued when the pool drained (nonzero only when
  /// interrupted) — what a resume would have left to do.
  [[nodiscard]] int remaining() const { return total - finished; }
};

/// The sweep's output: one ConditionResult per cell, parallel to `cells`.
struct SweepResult {
  std::vector<SweepCell> cells;
  std::vector<ConditionResult> results;
  SweepReport report;
};

/// Run every (cell, seed) job of the grid on one shared worker pool with
/// streaming aggregation (one ConditionAccumulator per cell), journaling
/// and resuming via opts.journal_path when set.  Each cell's jobs are
/// delivered in seed order, interleaved arbitrarily across cells; at its
/// turn a job is journaled, then folded (a success) or recorded (a
/// failure), then counted.  Journaled jobs are restored on the calling
/// thread, in job order, before any worker starts, and never execute.
/// Every other job executes even when others fail — unless opts.stop
/// flips, which drains the pool gracefully.  Failures come back sorted by
/// (cell, seed) in the report.
///
/// Throws std::invalid_argument for runs <= 0 or an invalid cell scenario
/// before the journal is opened.  A failed journal append, on any thread,
/// stops the pool like the stop flag and throws its JournalError once
/// every worker has joined; the journal ends at the torn record, which a
/// resume truncates.  An exception from opts.on_snapshot takes the same
/// path.  With opts.throw_on_failure (the default) a completed sweep with
/// failures throws std::runtime_error listing them; an interrupted sweep
/// always returns normally with report.interrupted set so the partial
/// (journaled) state reaches the caller.
[[nodiscard]] SweepResult run_sweep(std::vector<SweepCell> cells,
                                    const SweepOptions& opts);

}  // namespace cgs::core
