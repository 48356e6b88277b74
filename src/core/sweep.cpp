#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/journal.hpp"
#include "core/testbed.hpp"
#include "util/arena.hpp"

namespace cgs::core {
namespace {

/// One finished job waiting for its turn: a trace, or the failure of a run
/// that produced none.
struct Slot {
  std::optional<RunTrace> trace;
  std::optional<SweepFailure> failure;
  bool journaled = false;  // restored from the journal, not executed
};

/// Per-cell delivery state: finished jobs park here until every lower seed
/// has been delivered, keeping each cell's journal records, folds and
/// failures in seed order.  The buffer stays O(threads): the cursor hands
/// out each cell's jobs in seed order, so a job parks only behind lower
/// seeds still running on other workers.
struct CellState {
  std::mutex mu;
  int next_run = 0;
  std::map<int, Slot> pending;
};

}  // namespace

SweepResult run_sweep(std::vector<SweepCell> cells, const SweepOptions& opts) {
  // Fail nonsensical configs before the journal is opened or any worker
  // spawns.
  if (opts.runs <= 0) {
    throw std::invalid_argument("SweepOptions: runs must be > 0 (got " +
                                std::to_string(opts.runs) + ")");
  }
  for (const SweepCell& c : cells) c.scenario.validate();

  const int runs = opts.runs;
  const int total = int(cells.size()) * runs;
  SweepReport report;
  report.total = total;

  std::vector<ConditionAccumulator> accs;
  accs.reserve(cells.size());
  for (const SweepCell& c : cells) accs.emplace_back(c.scenario);

  // --- crash-safe journaling ----------------------------------------------
  std::optional<JournalWriter> writer;
  // The scan and the payload reader outlive the pool: `journaled` points
  // into the scan, and a restored slot's payload is read at its delivery.
  std::optional<JournalScan> scan;
  std::optional<JournalPayloads> payloads;
  // journaled[job]: the first in-range record for that slot (duplicates
  // can only come from a hand-edited file), or null.
  std::vector<const JournalEntry*> journaled(std::size_t(total), nullptr);
  int restored = 0;
  if (!opts.journal_path.empty()) {
    const std::uint64_t fp = sweep_fingerprint(cells, runs);
    scan = scan_journal(opts.journal_path);
    if (scan) {
      if (scan->meta.fingerprint != fp) {
        throw JournalMismatchError(
            "journal '" + opts.journal_path +
            "' was written for a different grid (fingerprint mismatch); "
            "refusing to resume — delete it or pass the original grid");
      }
      for (const JournalEntry& e : scan->entries) {
        if (e.cell >= cells.size() || int(e.run) >= runs) continue;
        const JournalEntry*& first =
            journaled[e.cell * std::size_t(runs) + e.run];
        if (first != nullptr) continue;
        first = &e;
        ++restored;
      }
      payloads.emplace(opts.journal_path);
      writer = JournalWriter::append_to(opts.journal_path, scan->valid_bytes,
                                        opts.journal_sync);
    } else {
      JournalMeta meta;
      meta.fingerprint = fp;
      meta.runs = std::uint32_t(runs);
      meta.cells = std::uint32_t(cells.size());
      meta.note = opts.journal_note;
      writer = JournalWriter::create(opts.journal_path, meta,
                                     opts.journal_sync);
    }
  }

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  const int remaining_jobs = total - restored;
  const int threads = std::max(
      1, std::min(opts.threads > 0 ? opts.threads : int(hw),
                  std::max(remaining_jobs, 1)));

  std::vector<CellState> states(cells.size());
  // Guards the report, cells_finished, the snapshot call and the journal
  // append, so a snapshot is one consistent cut of the sweep and the
  // journal gets one record at a time.
  std::mutex report_mu;
  std::size_t cells_finished = 0;
  // The first exception out of a worker, rethrown on the calling thread.
  std::exception_ptr error;
  std::atomic<bool> aborted{false};

  // Caller holds report_mu (or the pool has joined).
  auto snapshot = [&](bool final_snapshot) {
    if (!opts.on_snapshot) return;
    ProgressSnapshot s;
    s.total = total;
    s.finished = report.finished;
    s.failed = int(report.failures.size());
    s.cells = cells.size();
    s.cells_finished = cells_finished;
    s.final = final_snapshot;
    opts.on_snapshot(s);
  };

  // The journal record of a fresh job, serialized and hashed before the
  // report lock is taken.
  auto record_of = [&](std::size_t cell, int run, const Slot& s) {
    JournalEntry e;
    e.cell = std::uint32_t(cell);
    e.run = std::uint32_t(run);
    e.seed = cells[cell].scenario.seed + std::uint64_t(run);
    if (s.trace) {
      e.ok = true;
      e.trace_hash = trace_hash(*s.trace);
      e.payload = serialize_trace(*s.trace);
    } else {
      e.cls = s.failure->cls;
      e.payload.assign(s.failure->what.begin(), s.failure->what.end());
    }
    return e;
  };

  // Caller holds report_mu.  A failed append drops the writer, closing the
  // file at the torn record: nothing is written after it, a resume
  // truncates it as a torn tail, and any later append throws too.  The
  // first failure is kept here, so a later append's "moved-from writer"
  // cannot reach the caller in its place.
  auto append = [&](const JournalEntry& e) {
    try {
      writer->append(e);
    } catch (...) {
      const JournalWriter dropped = std::move(*writer);
      if (!error) error = std::current_exception();
      throw;
    }
  };

  // A job is journaled, folded or recorded as failed, and counted only when
  // its slot is delivered in seed order.  One that finishes ahead of a
  // lower seed stays parked; if a drain ends the sweep first it is neither
  // counted nor journaled, so a resume re-runs exactly the slots that never
  // reached the caller.  A slot leaves the buffer before anything that can
  // throw (the append, the snapshot), so no later delivery journals or
  // counts it a second time.
  auto deliver = [&](int job, Slot&& slot) {
    const auto cell = std::size_t(job) / std::size_t(runs);
    CellState& st = states[cell];
    std::lock_guard lk(st.mu);
    st.pending.emplace(job % runs, std::move(slot));
    for (auto it = st.pending.find(st.next_run); it != st.pending.end();
         it = st.pending.find(st.next_run)) {
      auto node = st.pending.extract(it);
      ++st.next_run;
      Slot& s = node.mapped();
      {
        std::optional<JournalEntry> record;
        if (writer && !s.journaled) record = record_of(cell, node.key(), s);
        std::lock_guard rk(report_mu);
        if (record) append(*record);
        if (s.failure) report.failures.push_back(std::move(*s.failure));
        if (s.journaled) {
          ++report.skipped;
        } else if (s.trace) {
          ++report.succeeded;
        }
        ++report.finished;
        if (node.key() + 1 == runs) ++cells_finished;
        snapshot(false);
      }  // the record is freed here, before the fold
      if (s.trace) accs[cell].add(*s.trace);
    }  // the trace dies with its node — nothing accumulates
  };

  // Restore the journaled jobs through the same seed-order delivery path,
  // on the calling thread, in job order, before any worker spawns: the
  // fold order a resumed sweep sees is exactly the order an uninterrupted
  // sweep saw.  Each payload is read (and its frame re-checked) right
  // before its delivery, so a corrupt record fails the resume up front.
  for (int job = 0; job < total; ++job) {
    const JournalEntry* e = journaled[std::size_t(job)];
    if (e == nullptr) continue;
    const std::span<const unsigned char> bytes = payloads->load(*e);
    Slot slot;
    slot.journaled = true;
    if (e->ok) {
      slot.trace = deserialize_trace(bytes.data(), bytes.size());
    } else {
      SweepFailure f;
      f.cell = e->cell;
      f.cell_label = cells[e->cell].label;
      f.seed = e->seed;
      f.what.assign(bytes.begin(), bytes.end());
      f.cls = e->cls;
      slot.failure = std::move(f);
    }
    deliver(job, std::move(slot));
  }

  auto stopped = [&] {
    return aborted.load(std::memory_order_relaxed) ||
           (opts.stop != nullptr &&
            opts.stop->load(std::memory_order_relaxed));
  };

  // Runs a job once: its trace, or its failure — a forked child's process
  // death included — is final and goes to delivery.
  auto execute = [&](int job, util::Arena& arena) {
    const auto cell = std::size_t(job) / std::size_t(runs);
    const std::uint64_t seed =
        cells[cell].scenario.seed + std::uint64_t(job % runs);
    Slot slot;
    SweepFailure f;
    if (opts.isolation == Isolation::kForked) {
      // Run the job in its own process: the child executes the same
      // Testbed code path against a fresh arena and ships the bit-exact
      // serialized trace back over the pipe.  The supervisor classifies
      // every way the child can die (core/proc.hpp).
      Scenario sc = cells[cell].scenario;
      sc.seed = seed;
      const proc::ChildResult cr = proc::run_forked(
          [&sc]() {
            util::Arena child_arena;
            Testbed bed(sc, &child_arena);
            return serialize_trace(bed.run());
          },
          opts.limits);
      if (cr.ok) {
        try {
          slot.trace = deserialize_trace(cr.payload.data(), cr.payload.size());
        } catch (const std::exception& e) {
          f.what =
              std::string("result frame did not deserialize: ") + e.what();
          f.cls = ErrorClass::kUnclassified;
        }
      } else {
        f.what = cr.message;
        f.cls = cr.cls;
      }
    } else {
      try {
        Scenario sc = cells[cell].scenario;
        sc.seed = seed;
        // Recycle the worker's arena blocks; the previous job's Testbed
        // is already destroyed, so its slabs are dead storage by now.
        arena.reset();
        Testbed bed(sc, &arena);
        slot.trace = bed.run();
      } catch (const std::exception& e) {
        f.what = e.what();
        f.cls = classify(e);
      } catch (...) {
        f.what = "unknown exception";
        f.cls = ErrorClass::kUnclassified;
      }
    }
    if (!slot.trace) {
      f.cell = cell;
      f.cell_label = cells[cell].label;
      f.seed = seed;
      slot.failure = std::move(f);
    }
    deliver(job, std::move(slot));
  };

  // One cursor over the flat cell-major job list: each worker claims the
  // next job, skips the journaled ones, and returns once the list runs out.
  // The jobs are independent and take 0.3-1 s each, so one atomic
  // increment per job is all the scheduling they need, and a cell's seeds
  // go out in increasing order, which keeps its reorder buffer small.
  // An exception out of a job's delivery (a failed journal append, a
  // throwing on_snapshot) stops the pool the way the stop flag does.
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    // One arena per worker, reused across every job it executes: steady-
    // state job turnover stops touching the allocator for slab storage.
    util::Arena arena;
    try {
      // Graceful drain: claim nothing new once the stop flag flips; jobs
      // already executing elsewhere complete and get journaled.
      while (!stopped()) {
        const std::size_t job = cursor.fetch_add(1);
        if (job >= std::size_t(total)) return;
        if (journaled[job] == nullptr) execute(int(job), arena);
      }
    } catch (...) {
      std::lock_guard lk(report_mu);
      if (!error) error = std::current_exception();
      aborted.store(true, std::memory_order_relaxed);
    }
  };

  if (remaining_jobs > 0 && !stopped()) {
    if (threads == 1) {
      worker();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(std::size_t(threads));
      for (int w = 0; w < threads; ++w) pool.emplace_back(worker);
      for (auto& t : pool) t.join();
    }
  }
  if (error) std::rethrow_exception(error);

  report.interrupted = report.finished < total;
  // The one final snapshot: emitted after the pool drains — complete or
  // interrupted — so a subscriber always sees the end state.
  snapshot(true);

  std::sort(report.failures.begin(), report.failures.end(),
            [](const SweepFailure& a, const SweepFailure& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.seed < b.seed;
            });

  // Surface deferred write errors (ENOSPC/EIO under journal_sync=false)
  // now, while the caller can still react — not in a silent destructor.
  if (writer) writer->close();

  if (!report.failures.empty() && !report.interrupted &&
      opts.throw_on_failure) {
    std::ostringstream os;
    os << "run_sweep: " << report.failures.size() << " of " << total
       << " jobs failed:";
    for (const SweepFailure& f : report.failures) {
      os << "\n  cell '" << f.cell_label << "' seed " << f.seed << ": "
         << f.what;
    }
    throw std::runtime_error(os.str());
  }

  SweepResult res;
  res.report = std::move(report);
  res.results.reserve(accs.size());
  for (ConditionAccumulator& a : accs) res.results.push_back(a.finalize());
  res.cells = std::move(cells);
  return res;
}

}  // namespace cgs::core
