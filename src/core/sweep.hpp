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
// Two entry points: run_sweep (aggregation, journaling, resume and the
// failure summary) over sweep_jobs (the raw engine, one callback per
// trace).
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
// on restart against the same grid, preload the journaled results instead
// of re-running them — folding them through the same seed-order delivery
// path, so a resumed sweep's ConditionResult is bit-identical to an
// uninterrupted one.  A resume keeps the same memory bound: it scans the
// journal without payloads and decodes each journaled trace only when its
// slot is delivered.  A stop flag (SweepOptions::stop) drains gracefully:
// in-flight jobs finish and are journaled, queued jobs stay queued, and
// the partial result comes back marked interrupted.
//
// Fault isolation: with SweepOptions::isolation = kForked each job runs in
// a fork()ed child under per-job rlimits and a wall-clock deadline
// (core/proc.hpp), so a segfault, OOM, or wedge kills one child instead of
// the sweep.  The child ships its RunTrace over a pipe via the bit-exact
// journal serialization, and the parent folds it through the same
// seed-order delivery path — forked results are bit-identical to
// in-process ones at any thread count.  A job whose child keeps dying is
// retried with capped jittered backoff and quarantined after
// quarantine_strikes total executions: recorded as a failure, journaled,
// and never run again (resume skips it like any journaled failure).  Every
// other failure is final at once: a job is deterministic, so re-running it
// reproduces the failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
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

/// One failed (cell, seed) job, classified for triage.
struct SweepFailure {
  std::size_t cell = 0;  // index into the cell list
  std::string cell_label;
  std::uint64_t seed = 0;
  std::string what;
  ErrorClass cls = ErrorClass::kUnclassified;
  int attempts = 1;  // executions, forked strikes included
  /// Forked isolation only: the job kept killing its worker process and
  /// exhausted its quarantine strikes — it is recorded as failed and never
  /// executed again this sweep (nor on resume: the journal remembers).
  bool quarantined = false;
};

/// How each (cell, seed) job executes.
enum class Isolation : std::uint8_t {
  /// In the worker thread (the default): fastest, but a crashing or
  /// runaway job takes the whole sweep with it.
  kInProcess,
  /// In a fork()ed child per job under a supervisor (core/proc.hpp): a
  /// poisoned job costs one child, the sweep completes and quarantines it.
  /// Results cross the pipe via the bit-exact RunTrace serialization, so
  /// forked sweeps are bit-identical to in-process ones.
  kForked,
};

/// Throttled cross-thread progress summary (SweepOptions::on_snapshot):
/// one consistent reading of the sweep's counters, emitted at most every
/// snapshot_interval_ms instead of once per job — what tools/sweep paints
/// as its progress line without drowning a large grid in per-job callbacks.
struct ProgressSnapshot {
  int total = 0;     // jobs in the grid (cells x runs)
  int finished = 0;  // delivered in seed order, preloaded included
  int failed = 0;    // failed jobs, preloaded and fresh
  int retries = 0;   // extra executions granted to forked strikes
  std::size_t cells = 0;           // cells in the grid
  std::size_t cells_finished = 0;  // cells with every job delivered
  /// Set on the one guaranteed last snapshot, emitted when the pool has
  /// drained (complete or interrupted) regardless of the throttle.
  bool final = false;
};

struct SweepOptions {
  int runs = 15;    // seeded repetitions per cell (paper: 15, §3.4)
  int threads = 0;  // 0 = hardware concurrency

  /// Progress reporting: called with a ProgressSnapshot at most every
  /// snapshot_interval_ms, plus exactly once — final = true — after the
  /// pool drains, even when interrupted.  `finished` counts successes,
  /// failures AND journal-preloaded jobs, each when its slot is delivered
  /// in seed order (see sweep_jobs), not when it finishes executing.  At
  /// interval 0 every delivery gets a snapshot and the non-final ones read
  /// finished = 1, 2, ..., total.  Calls are serialized; exceptions are
  /// swallowed and counted in SweepReport::progress_errors — reporting
  /// must not kill a worker thread.  Unset costs nothing.
  std::function<void(const ProgressSnapshot&)> on_snapshot;
  std::uint32_t snapshot_interval_ms = 500;

  // --- fault isolation -----------------------------------------------------

  /// Execution mode; see Isolation.  Defaults to in-process.
  Isolation isolation = Isolation::kInProcess;

  /// Per-job resource caps, applied in the child (forked mode only):
  /// address-space and CPU rlimits plus a supervisor-enforced wall-clock
  /// deadline.  Zero fields are uncapped.
  proc::ResourceLimits limits;

  /// Forked mode only: total executions granted to a job whose child dies
  /// a process death (kCrash / kTimeout / kResource) before the job is
  /// quarantined — recorded as failed, never run again this sweep.
  /// Process deaths are retried at all (unlike deterministic simulation
  /// failures) because they can be environmental: a transient OOM from a
  /// co-tenant, an operator kill, a loaded host missing a deadline.
  /// Between strikes the worker backs off, capped exponential from 100 ms
  /// to 2 s with deterministic jitter (proc::backoff_ms), polling `stop`
  /// so a drain request is honored mid-backoff.
  int quarantine_strikes = 3;

  /// Graceful-drain flag: when it reads true, workers finish their
  /// in-flight job and stop pulling new ones.  The sweep returns a partial
  /// result with SweepReport::interrupted set (and, when journaling, every
  /// finished job safely on disk).  A forked job whose child died with
  /// strikes left is not finished: it is left for the resume.  Typically
  /// flipped by a signal handler.
  const std::atomic<bool>* stop = nullptr;

  // --- run_sweep only ------------------------------------------------------

  /// Non-empty enables crash-safe journaling: every finished job is
  /// appended (fsync'd) to this file, and a restart against the same grid
  /// resumes from it instead of re-running finished jobs.  A journal whose
  /// grid fingerprint does not match throws JournalMismatchError.
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

/// At most this many SweepFailure records are kept per cell; the rest are
/// counted (SweepReport::failures_suppressed / cell_failures) but their
/// messages dropped, bounding memory when a whole cell is sick.
inline constexpr std::size_t kFailureRecordsPerCell = 8;

/// What happened during one sweep_jobs / run_sweep invocation.
struct SweepReport {
  /// Final failures in (cell, seed) order, at most kFailureRecordsPerCell
  /// records per cell (suppressed ones are still counted below).
  std::vector<SweepFailure> failures;
  /// Total failed jobs per cell (including suppressed records), parallel
  /// to the cell list.
  std::vector<std::size_t> cell_failures;
  /// Failure records dropped by the per-cell cap.
  std::size_t failures_suppressed = 0;

  int total = 0;     // jobs in the grid (cells x runs)
  /// Jobs delivered in seed order: successes + failures + preloaded.  A
  /// job that finished ahead of a lower seed still pending when a drain
  /// ended is not delivered, not counted and (under run_sweep) not
  /// journaled: a resume runs it again.
  int finished = 0;
  int succeeded = 0;  // fresh jobs that produced a trace this invocation
  int skipped = 0;    // jobs satisfied from preloaded/journaled results
  int retries = 0;    // extra executions granted to forked strikes
  int quarantined = 0;       // jobs that exhausted their quarantine strikes
  int progress_errors = 0;   // on_snapshot exceptions swallowed
  bool interrupted = false;  // stop flag drained the pool before the end

  /// Jobs still queued when the pool drained (nonzero only when
  /// interrupted) — what a resume would have left to do.
  [[nodiscard]] int remaining() const { return total - finished; }
  /// Total failed jobs, preloaded and fresh, across all cells.
  [[nodiscard]] std::size_t failed() const {
    std::size_t n = 0;
    for (std::size_t c : cell_failures) n += c;
    return n;
  }
};

/// A previously-finished (cell, run) job fed back into the engine: either
/// a successful trace (delivered through consume in seed order, exactly as
/// if it had just run) or a recorded failure (re-reported, not re-run).
/// The trace is produced by `load`, called once on sweep_jobs' calling
/// thread right before the slot is delivered, so a preload list costs no
/// trace memory until its turn (run_sweep binds it to a re-read of the
/// journal record).
struct PreloadedRun {
  std::size_t cell = 0;
  int run = 0;
  std::function<RunTrace()> load;       // success payload
  std::optional<SweepFailure> failure;  // recorded failure (no re-run)
};

/// Low-level engine: run every (cell, seed) job of the grid on one shared
/// worker pool.  `consume(cell_index, run_index, trace)` is invoked once
/// per successful run from worker threads; calls for any one cell are
/// serialized and arrive in seed order, interleaved arbitrarily across
/// cells.  A failed run calls `on_failure` instead, once, with its final
/// failure, in the same order; exceptions it throws are swallowed
/// (run_sweep journals failures through it, in order with the successes
/// around them).  Counters and snapshots advance with that in-order
/// delivery.
/// `preloaded` jobs are delivered first (on the calling thread, in the
/// order given, each loaded just before its delivery) and their slots
/// never execute; one that arrives ahead of a lower seed parks with its
/// loaded trace until that seed is delivered.  A throwing loader fails
/// the call before any worker spawns.  Every remaining job
/// executes even when others fail — unless opts.stop flips, which drains
/// the pool gracefully.  Failures come back sorted by (cell, seed) in the
/// report.  Throws std::invalid_argument for runs <= 0, an invalid cell
/// scenario, or an out-of-range/duplicate preloaded slot, before any
/// worker spawns.
[[nodiscard]] SweepReport sweep_jobs(
    const std::vector<SweepCell>& cells, const SweepOptions& opts,
    const std::function<void(std::size_t, int, RunTrace&&)>& consume,
    const std::function<void(const SweepFailure&)>& on_failure = {},
    const std::vector<PreloadedRun>& preloaded = {});

/// The sweep's output: one ConditionResult per cell, parallel to `cells`.
struct SweepResult {
  std::vector<SweepCell> cells;
  std::vector<ConditionResult> results;
  SweepReport report;
};

/// Run the whole grid with streaming aggregation (one ConditionAccumulator
/// per cell), journaling and resuming via opts.journal_path when set.
/// With opts.throw_on_failure (the default) a completed sweep with
/// failures throws std::runtime_error listing them (capped per cell); an
/// interrupted sweep always returns normally with report.interrupted set
/// so the partial (journaled) state reaches the caller.
[[nodiscard]] SweepResult run_sweep(std::vector<SweepCell> cells,
                                    const SweepOptions& opts);

}  // namespace cgs::core
