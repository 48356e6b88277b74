// Crash-safe run journal for sweeps.
//
// An append-only binary file with one CRC-checked record per finished
// (cell, seed) job: successful jobs carry the full serialized RunTrace
// (bit-exact, so a resumed sweep folds the identical bytes into its
// streaming accumulators) plus the golden-trace FNV-1a hash; failed jobs
// carry the error class and message so triage survives a crash.  Records
// are fsync'd as they are written — after a SIGKILL, OOM kill or power
// loss, everything up to the last completed record is recoverable, and a
// torn trailing record (a crash mid-write) is detected by its CRC/length
// and truncated away on the next open.
//
// Encoding, CRC and frame shape are util/wire's.  This format owns:
//
//   header:  "CGSJNL01" | u32 version (4) | u64 fingerprint | u32 runs
//            | u32 cells | str note, sealed with a trailing CRC
//   record:  a wire frame with magic "GRNL", head u32 cell | u32 run
//            | u64 seed | u8 ok | u8 class | u64 trace_hash, and a 1 GiB
//            payload cap
//   trace:   i64 sample_interval | i64 duration | flows (id, name, kind,
//            mbps, pkts_recv, pkts_lost) | rtt | frame_times | links
//            (name, util_mbps, depth_bytes, drops) | fleet digest; the
//            two-flow views are derived from the flows and links
//
// Error policy: a header too short for its fields means "no journal"; a
// wrong magic, version or header CRC throws.  A short, bad-magic,
// oversized or incomplete record is a torn tail; a bad record CRC is a
// torn tail at end-of-file and throws mid-file.
//
// Reading streams: every reader walks the file one record at a time
// through one reusable frame buffer (the fixed part first, then the whole
// frame, each checked by wire::scan_frame), so memory is O(one record)
// plus what the caller keeps.  read_journal keeps every payload;
// scan_journal keeps only head fields and file offsets, and a
// JournalPayloads handle re-reads (and re-checks) one payload when it is
// needed.
//
// The fingerprint digests the run count and each cell's label and key
// (cell_key); resume refuses a journal whose fingerprint does not match
// the grid being run.  A journal of another version is refused too: it is
// a scratch artifact of the build that wrote it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/collectors.hpp"
#include "core/error.hpp"
#include "core/sweep.hpp"

namespace cgs::core {

/// Unrecoverable journal problem: I/O failure or corruption that is not a
/// torn tail (torn tails are repaired silently).
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The journal's fingerprint does not match the grid being resumed —
/// resuming would silently mix results from two different experiments.
class JournalMismatchError : public JournalError {
 public:
  using JournalError::JournalError;
};

struct JournalMeta {
  std::uint64_t fingerprint = 0;
  std::uint32_t runs = 0;
  std::uint32_t cells = 0;
  /// Free-form provenance line, e.g. "grid=fig3 seed=42 runs=5" — lets
  /// tools/replay rebuild the grid without guessing.
  std::string note;
};

/// One journaled (cell, seed) job.
struct JournalEntry {
  std::uint32_t cell = 0;
  std::uint32_t run = 0;  // seed index within the cell (seed = base + run)
  std::uint64_t seed = 0;
  bool ok = false;
  ErrorClass cls = ErrorClass::kUnclassified;  // meaningful when !ok
  std::uint64_t trace_hash = 0;                // golden FNV-1a (ok records)
  /// File offset of the record's frame (what JournalPayloads re-reads).
  std::uint64_t offset = 0;
  /// Serialized RunTrace (ok) or UTF-8 error message (failed); empty in
  /// a scan_journal entry.
  std::vector<unsigned char> payload;
};

/// Result of scanning a journal from disk.
struct JournalScan {
  JournalMeta meta;
  std::vector<JournalEntry> entries;
  /// File offset just past the last intact record; a resume opens the
  /// journal for append at this offset, truncating any torn tail.
  std::uint64_t valid_bytes = 0;
  /// True when a torn trailing record was detected (and excluded).
  bool torn_tail = false;
};

/// Scan `path`, keeping every record's payload.  Returns nullopt when the
/// file is missing or too short to hold a complete header (a crash during
/// creation): callers recreate it.  Throws JournalError for a corrupt
/// header or a mid-file corrupt record; a bad record that extends to
/// end-of-file is a torn tail, not an error.
[[nodiscard]] std::optional<JournalScan> read_journal(const std::string& path);

/// The same walk, checks and errors as read_journal, but the entries keep
/// no payload bytes: memory is O(one record) plus the index of head fields
/// and offsets.  Load a payload later through JournalPayloads.
[[nodiscard]] std::optional<JournalScan> scan_journal(const std::string& path);

/// Loads the payloads of scan_journal entries one at a time, through one
/// read-only fd and one reusable frame buffer.
class JournalPayloads {
 public:
  /// Open `path` read-only.  Throws JournalError naming the path and errno.
  explicit JournalPayloads(const std::string& path);
  JournalPayloads(const JournalPayloads&) = delete;
  JournalPayloads& operator=(const JournalPayloads&) = delete;
  ~JournalPayloads();

  /// Re-read the record of `e` (an entry of a scan of this file) and run
  /// the scan's frame checks on it again.  Throws JournalError when the
  /// frame no longer passes them or its head differs from `e`'s: the file
  /// changed since the scan.  The bytes live until the next call.
  [[nodiscard]] std::span<const unsigned char> load(const JournalEntry& e);

 private:
  int fd_ = -1;
  std::string path_;
  std::vector<unsigned char> frame_;
};

/// Appends CRC'd records, optionally fsync'ing each one.
class JournalWriter {
 public:
  /// Create (or truncate) `path` and write a fresh header.
  [[nodiscard]] static JournalWriter create(const std::string& path,
                                            const JournalMeta& meta,
                                            bool sync = true);

  /// Open an existing journal for append, truncating to `valid_bytes`
  /// first (drops a torn tail detected by read_journal).
  [[nodiscard]] static JournalWriter append_to(const std::string& path,
                                               std::uint64_t valid_bytes,
                                               bool sync = true);

  JournalWriter(JournalWriter&& o) noexcept;
  JournalWriter& operator=(JournalWriter&& o) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Append one record (write + optional fsync).  Throws JournalError
  /// naming the path and errno on I/O failure — ENOSPC and EIO surface at
  /// the record that hit them, not as silently missing data.
  void append(const JournalEntry& e);

  /// Flush (when not already fsync'ing per record) and close the file,
  /// throwing JournalError if the kernel reports a deferred write error —
  /// the destructor closes silently, so callers that care about ENOSPC on
  /// the final records must close() explicitly.  Idempotent.
  void close();

 private:
  JournalWriter(int fd, bool sync, std::string path)
      : fd_(fd), sync_(sync), path_(std::move(path)) {}

  int fd_ = -1;
  bool sync_ = true;
  std::string path_;
};

/// Exact binary round-trip of a RunTrace (doubles via memcpy — bit-exact).
[[nodiscard]] std::vector<unsigned char> serialize_trace(const RunTrace& t);
/// Throws JournalError if the payload is malformed.
[[nodiscard]] RunTrace deserialize_trace(const unsigned char* data,
                                         std::size_t size);

/// The golden-trace FNV-1a digest (same fields and order as
/// tools/golden_dump and tests/integration/golden_trace_test).
[[nodiscard]] std::uint64_t trace_hash(const RunTrace& t);

/// FNV-1a over one incremental value (exposed for fingerprint builders).
[[nodiscard]] std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                        std::size_t n);

/// The label-free identity of a cell: a util/wire encoding of everything
/// its jobs and its aggregate read, in resolved form (effective_topology()
/// with each link's queue as the graph builds it, effective_flows() with
/// each flow's path as link indices, the fleet, the fault, the fairness
/// denominator and the measurement span).  Equal keys mean bit-identical
/// traces and ConditionResult statistics.  The label enters only when
/// controller_override is set, because a closure cannot be encoded; the
/// observer-only audit mode never does.
[[nodiscard]] std::vector<unsigned char> cell_key(const SweepCell& cell);

/// FNV-1a over the run count and each cell's label and cell_key.  Two
/// sweeps with equal fingerprints execute the same job list under the
/// same labels.
[[nodiscard]] std::uint64_t sweep_fingerprint(
    const std::vector<SweepCell>& cells, int runs);

}  // namespace cgs::core
