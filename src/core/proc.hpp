// Fault-isolated job execution: a fork()ed child under a supervisor.
//
// The sweep engine's forked-isolation mode runs every (cell, seed) job in
// its own process so a poisoned job — a segfault in a new controller, an
// OOM from a pathological scenario, a wedged run the in-sim watchdog can't
// see — kills only its child, never the pool.  run_forked() is that
// substrate: it forks, applies per-job rlimits in the child, runs the job,
// ships the result back over a pipe as one util/wire frame, and
// classifies every way the child can die into the ErrorClass taxonomy:
//
//   child reports cleanly   -> the job's own class (ok, or a classified
//                              simulation failure: watchdog/invariant/...)
//   fatal signal            -> kCrash    (SIGSEGV, SIGABRT, SIGBUS, ...)
//   supervisor deadline     -> kTimeout  (SIGKILL after wall_seconds)
//   rlimit / OOM kill       -> kResource (SIGXCPU, kernel OOM SIGKILL,
//                              bad_alloc under RLIMIT_AS)
//   anything else           -> kCrash with the raw exit status
//
// The payload protocol is byte-exact: a child that serializes a RunTrace
// hands the parent the identical bytes an in-process run would have
// journaled, which is what makes forked sweeps bit-identical to in-process
// ones.  The child never returns from run_forked — it _exit()s — so parent
// state (journals, accumulators, other workers) is never touched twice.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace cgs::core::proc {

/// Per-job caps applied in the child before the job runs.  Zero fields
/// inherit the parent's (usually unlimited) limits.
struct ResourceLimits {
  /// RLIMIT_AS in bytes: allocations beyond this fail with bad_alloc,
  /// which the child reports as a clean kResource failure.
  std::uint64_t address_space_bytes = 0;
  /// RLIMIT_CPU in seconds: the kernel SIGXCPUs (then SIGKILLs) a child
  /// that burns more CPU than this — kResource.
  std::uint32_t cpu_seconds = 0;
  /// Wall-clock deadline enforced by the *supervisor* with SIGKILL —
  /// kTimeout.  Catches wedged-but-idle children rlimits never see.
  double wall_seconds = 0;
};

/// What one forked job execution produced, as observed by the supervisor.
struct ChildResult {
  /// True when the child reported success; `payload` holds the job's bytes.
  bool ok = false;
  std::vector<unsigned char> payload;

  /// Failure classification (meaningful when !ok).
  ErrorClass cls = ErrorClass::kUnclassified;
  std::string message;

  /// Diagnostics: the signal that killed the child (0 = exited), its exit
  /// status (when signaled: -1), and whether the supervisor SIGKILLed it.
  int term_signal = 0;
  int exit_status = 0;
  bool timed_out = false;
};

/// The job body run inside the child.  Returns the success payload bytes;
/// a thrown exception is classified (core/error.hpp) and reported as a
/// clean failure.  Must not touch parent-owned shared state — the child is
/// a fork, so any mutation dies with it.
using ChildJob = std::function<std::vector<unsigned char>()>;

/// Run `job` in a fork()ed child under `limits` and reap it.  Never
/// throws for child-side problems (they come back classified in the
/// result); throws std::runtime_error only when the supervisor itself
/// cannot operate (pipe/fork failure).
[[nodiscard]] ChildResult run_forked(const ChildJob& job,
                                     const ResourceLimits& limits);

// --- EINTR-hardened fd I/O ---------------------------------------------------
//
// The supervisor and child talk over a pipe while signals fly (SIGCHLD
// from sibling workers, operator SIGTERM/SIGINT, profiler SIGPROF), and
// any of them can interrupt a read/write mid-frame or split it short.
// These helpers retry EINTR internally and accumulate short transfers, so
// frame-level code never sees a partial syscall.  They are equally valid
// on sockets and regular files (the sweep service reuses them).

/// Write exactly `n` bytes, retrying EINTR and short writes.  False on a
/// real error (errno is preserved).
bool write_exact(int fd, const void* data, std::size_t n);

/// Read up to `n` bytes, retrying EINTR only.  Returns the byte count
/// (0 = EOF), or -1 on a real error (errno is preserved).
long read_some(int fd, void* data, std::size_t n);

/// Read exactly `n` bytes, retrying EINTR and accumulating short reads.
/// False on EOF-before-n or a real error.
bool read_exact(int fd, void* data, std::size_t n);

/// Replace `out` with the contents of the file at `path` (as many bytes as
/// its size at open time, fewer if it shrinks meanwhile).  False on an
/// open or read error (errno is preserved).
bool read_file(const std::string& path, std::vector<unsigned char>& out);

/// Capped exponential backoff with deterministic jitter for retry
/// attempt `attempt` (1-based): min(base << (attempt-1), max), scaled
/// into [50%, 100%] by a splitmix64 hash of `jitter_key` and the attempt
/// — same key, same schedule, so retry timing is reproducible.
[[nodiscard]] std::uint32_t backoff_ms(std::uint32_t base_ms,
                                       std::uint32_t max_ms, int attempt,
                                       std::uint64_t jitter_key);

}  // namespace cgs::core::proc
