#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/journal.hpp"
#include "core/testbed.hpp"
#include "util/arena.hpp"

namespace cgs::core {
namespace {

/// Chase-Lev work-stealing deque of job indices (memory orderings per
/// Le et al., "Correct and Efficient Work-Stealing for Weak Memory
/// Models", PPoPP '13).  The flat job list is known up front and jobs
/// never spawn jobs, so the buffer is sized once and there is no growth
/// path; indices are never recycled, which rules out ABA on top_.
class WorkDeque {
 public:
  explicit WorkDeque(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < std::max<std::size_t>(capacity, 2)) cap <<= 1;
    buf_ = std::make_unique<std::atomic<int>[]>(cap);
    mask_ = std::int64_t(cap) - 1;
  }

  /// Owner only.  Only called while seeding, before any thief runs, and
  /// never beyond capacity.
  void push(int job) {
    const auto b = bottom_.load(std::memory_order_relaxed);
    buf_[std::size_t(b & mask_)].store(job, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner only: take from the LIFO end.  False when empty.
  bool pop(int& out) {
    const auto b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    auto t = top_.load(std::memory_order_relaxed);
    bool got = false;
    if (t <= b) {
      out = buf_[std::size_t(b & mask_)].load(std::memory_order_relaxed);
      got = true;
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          got = false;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return got;
  }

  /// Any thief: take from the FIFO end.  False on empty or a lost race
  /// (callers retry their victim scan).
  bool steal(int& out) {
    auto t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const auto b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    out = buf_[std::size_t(t & mask_)].load(std::memory_order_relaxed);
    return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::unique_ptr<std::atomic<int>[]> buf_;
  std::int64_t mask_ = 0;
};

/// One finished job waiting for its turn: a trace, or the final failure
/// of a run that produced none.
struct Slot {
  std::optional<RunTrace> trace;
  std::optional<SweepFailure> failure;
  bool preloaded = false;
};

/// Per-cell delivery state: finished jobs park here until every lower seed
/// has been delivered, keeping consume() and on_failure calls in seed
/// order.  The buffer stays O(threads) in practice: owners walk their
/// slice in increasing job order, so only stolen tail jobs arrive early.
struct CellState {
  std::mutex mu;
  int next_run = 0;
  std::map<int, Slot> pending;
};

}  // namespace

SweepSpec& SweepSpec::axis(std::string name, std::vector<AxisValue> values) {
  axes.push_back({std::move(name), std::move(values)});
  return *this;
}

std::vector<SweepCell> SweepSpec::cells() const {
  std::vector<SweepCell> out;
  out.push_back({"", base});
  for (const SweepAxis& ax : axes) {
    std::vector<SweepCell> next;
    next.reserve(out.size() * ax.values.size());
    for (const SweepCell& cell : out) {
      for (const AxisValue& v : ax.values) {
        SweepCell c = cell;
        if (!c.label.empty()) c.label += ' ';
        c.label += ax.name;
        c.label += '=';
        c.label += v.label;
        if (v.apply) v.apply(c.scenario);
        next.push_back(std::move(c));
      }
    }
    out = std::move(next);
  }
  return out;
}

SweepReport sweep_jobs(
    const std::vector<SweepCell>& cells, const SweepOptions& opts,
    const std::function<void(std::size_t, int, RunTrace&&)>& consume,
    const std::vector<PreloadedRun>& preloaded) {
  if (opts.runs <= 0) {
    throw std::invalid_argument("SweepOptions: runs must be > 0 (got " +
                                std::to_string(opts.runs) + ")");
  }
  SweepReport report;
  if (cells.empty()) {
    if (opts.on_snapshot) {
      ProgressSnapshot s;
      s.final = true;
      try {
        opts.on_snapshot(s);
      } catch (...) {
        ++report.progress_errors;
      }
    }
    return report;
  }
  // Fail nonsensical configs on the calling thread, before spawning workers.
  for (const SweepCell& c : cells) c.scenario.validate();

  const int runs = opts.runs;
  const int total = int(cells.size()) * runs;
  report.total = total;
  report.cell_failures.assign(cells.size(), 0);

  // Validate the preloaded slots up front, same as the scenarios.
  std::vector<char> is_preloaded(std::size_t(total), 0);
  for (const PreloadedRun& p : preloaded) {
    if (p.cell >= cells.size() || p.run < 0 || p.run >= runs) {
      throw std::invalid_argument(
          "sweep_jobs: preloaded job (cell " + std::to_string(p.cell) +
          ", run " + std::to_string(p.run) + ") is outside the grid");
    }
    char& mark = is_preloaded[p.cell * std::size_t(runs) + std::size_t(p.run)];
    if (mark != 0) {
      throw std::invalid_argument(
          "sweep_jobs: duplicate preloaded job (cell " +
          std::to_string(p.cell) + ", run " + std::to_string(p.run) + ")");
    }
    mark = 1;
  }

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  const int remaining_jobs = total - int(preloaded.size());
  const int threads = std::max(
      1, std::min(opts.threads > 0 ? opts.threads : int(hw),
                  std::max(remaining_jobs, 1)));

  std::vector<CellState> states(cells.size());
  std::mutex failures_mu;  // guards report.failures/cell_failures/counters

  std::atomic<int> done{0};
  std::mutex progress_mu;
  int reported = 0;  // guarded by progress_mu: keeps calls strictly 1..total

  // Snapshot machinery: per-cell delivery counts feed cells_finished, and
  // the failure-side counters are read under failures_mu so a snapshot is
  // one consistent cut of the sweep, not a smeared mix of counters.
  auto cell_delivered = std::make_unique<std::atomic<int>[]>(cells.size());
  std::atomic<std::size_t> cells_finished{0};
  using SnapClock = std::chrono::steady_clock;
  SnapClock::time_point last_snapshot{};  // guarded by progress_mu

  auto make_snapshot = [&](bool final_snapshot) {
    ProgressSnapshot s;
    s.total = total;
    s.cells = cells.size();
    s.finished = done.load(std::memory_order_acquire);
    s.cells_finished = cells_finished.load(std::memory_order_acquire);
    {
      std::lock_guard lk(failures_mu);
      s.succeeded = report.succeeded;
      s.failed = int(report.failed());
      s.skipped = report.skipped;
      s.retries = report.retries;
      s.quarantined = report.quarantined;
    }
    s.final = final_snapshot;
    return s;
  };

  auto report_one = [&] {
    done.fetch_add(1, std::memory_order_release);
    if (!opts.progress && !opts.on_snapshot) return;
    std::lock_guard lk(progress_mu);
    ++reported;
    if (opts.progress) {
      try {
        opts.progress(reported, total);
      } catch (...) {
        // A throwing progress callback must not kill a worker thread; the
        // swallow is counted so the caller still learns reporting is broken.
        ++report.progress_errors;
      }
    }
    if (opts.on_snapshot) {
      const auto now = SnapClock::now();
      if (opts.snapshot_interval_ms == 0 ||
          last_snapshot == SnapClock::time_point{} ||
          now - last_snapshot >=
              std::chrono::milliseconds(opts.snapshot_interval_ms)) {
        last_snapshot = now;
        try {
          opts.on_snapshot(make_snapshot(false));
        } catch (...) {
          ++report.progress_errors;
        }
      }
    }
  };

  // Record one final failure, respecting the per-cell message cap.
  auto record_failure = [&](SweepFailure&& f) {
    {
      std::lock_guard lk(failures_mu);
      std::size_t& count = report.cell_failures[f.cell];
      ++count;
      if (count <= opts.max_failures_per_cell) {
        report.failures.push_back(f);
      } else {
        ++report.failures_suppressed;
      }
    }
    if (opts.on_failure) {
      try {
        opts.on_failure(f);
      } catch (...) {
        // Failure observers (e.g. the journal hook) must not take down a
        // worker; the failure itself is already recorded above.
      }
    }
  };

  // A job is counted, reported and handed to consume/on_failure only when
  // its slot is delivered in seed order.  One that finishes ahead of a
  // lower seed stays parked; if a drain ends the sweep first it is neither
  // counted nor journaled, so a resume re-runs exactly the slots that
  // never reached the caller.
  auto deliver = [&](int job, Slot&& slot) {
    const auto cell = std::size_t(job) / std::size_t(runs);
    CellState& st = states[cell];
    int delivered = 0;
    {
      std::lock_guard lk(st.mu);
      st.pending.emplace(job % runs, std::move(slot));
      for (auto it = st.pending.find(st.next_run); it != st.pending.end();
           it = st.pending.find(st.next_run)) {
        Slot& s = it->second;
        if (s.trace) consume(cell, st.next_run, std::move(*s.trace));
        if (s.failure) record_failure(std::move(*s.failure));
        {
          std::lock_guard flk(failures_mu);
          if (s.preloaded) {
            ++report.skipped;
          } else if (s.trace) {
            ++report.succeeded;
          }
        }
        st.pending.erase(it);  // the trace dies here — nothing accumulates
        ++st.next_run;
        ++delivered;
      }
    }
    for (; delivered > 0; --delivered) {
      if (cell_delivered[cell].fetch_add(1, std::memory_order_acq_rel) + 1 ==
          runs) {
        cells_finished.fetch_add(1, std::memory_order_acq_rel);
      }
      report_one();
    }
  };

  // Feed the preloaded results through the same seed-order delivery path,
  // on the calling thread, before any worker spawns: the fold order a
  // resumed sweep sees is exactly the order an uninterrupted sweep saw.
  for (const PreloadedRun& p : preloaded) {
    Slot slot{p.trace, p.failure, true};
    if (slot.failure) {
      slot.failure->cell = p.cell;
      slot.failure->cell_label = cells[p.cell].label;
    }
    deliver(int(p.cell) * runs + p.run, std::move(slot));
  }

  auto stopped = [&] {
    return opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed);
  };

  // Backoff between quarantine strikes: deterministic jitter keyed by the
  // job, sliced so a stop request is honored mid-sleep.
  auto backoff_sleep = [&](int attempt, std::size_t cell, std::uint64_t seed) {
    const std::uint64_t key = (std::uint64_t(cell) << 32) ^ seed;
    std::uint32_t left_ms =
        proc::backoff_ms(opts.backoff_base_ms, opts.backoff_max_ms, attempt,
                         key);
    while (left_ms > 0 && !stopped()) {
      const std::uint32_t slice = std::min<std::uint32_t>(left_ms, 10);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      left_ms -= slice;
    }
  };

  auto execute = [&](int job, util::Arena& arena) {
    const auto cell = std::size_t(job) / std::size_t(runs);
    const int run = job % runs;
    const std::uint64_t seed = cells[cell].scenario.seed + std::uint64_t(run);
    const bool forked = opts.isolation == Isolation::kForked;
    Slot slot;
    for (int attempt = 1;; ++attempt) {
      SweepFailure f;
      f.cell = cell;
      f.cell_label = cells[cell].label;
      f.seed = seed;
      f.attempts = attempt;
      if (forked) {
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
            slot.trace =
                deserialize_trace(cr.payload.data(), cr.payload.size());
            break;
          } catch (const std::exception& e) {
            f.what = std::string("result frame did not deserialize: ") +
                     e.what();
            f.cls = ErrorClass::kUnclassified;
          }
        } else {
          f.what = cr.message;
          f.cls = cr.cls;
          // Child-side context (sim-time, flow) is unavailable for process
          // deaths; classified simulation failures embed it in what().
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
          break;
        } catch (const std::exception& e) {
          f.what = e.what();
          f.cls = classify(e);
          const ErrorContext ctx = context_of(e);
          f.sim_time = ctx.sim_time;
          f.flow = ctx.flow;
        } catch (...) {
          f.what = "unknown exception";
          f.cls = ErrorClass::kUnclassified;
        }
      }
      // Deterministic failures reproduce identically — only possibly-
      // environmental (unclassified) ones earn another attempt.
      if (is_transient(f.cls) && attempt <= opts.max_retries && !stopped()) {
        std::lock_guard lk(failures_mu);
        ++report.retries;
        continue;
      }
      // Process deaths (forked mode) get their strikes: they too can be
      // environmental (co-tenant OOM, loaded host missing a deadline), but
      // a job that keeps killing its child is poison — quarantine it.
      if (forked && is_process_failure(f.cls)) {
        if (attempt < opts.quarantine_strikes && !stopped()) {
          {
            std::lock_guard lk(failures_mu);
            ++report.retries;
          }
          backoff_sleep(attempt, cell, seed);
          continue;
        }
        if (attempt >= opts.quarantine_strikes) {
          f.quarantined = true;
          std::lock_guard lk(failures_mu);
          ++report.quarantined;
        }
      }
      slot.failure = std::move(f);
      break;
    }
    deliver(job, std::move(slot));
  };

  // One deque per worker, seeded with a contiguous slice of the flat
  // cell-major job list (minus any preloaded slots).  Slices are pushed in
  // reverse so the owner's LIFO pop walks its seeds in increasing order
  // (keeping each cell's reorder buffer small) while thieves bite the far
  // end of a straggler's slice.
  std::vector<std::unique_ptr<WorkDeque>> deques;
  deques.reserve(std::size_t(threads));
  for (int w = 0; w < threads; ++w) {
    const int lo = int(std::int64_t(total) * w / threads);
    const int hi = int(std::int64_t(total) * (w + 1) / threads);
    auto dq = std::make_unique<WorkDeque>(std::size_t(hi - lo));
    for (int job = hi - 1; job >= lo; --job) {
      if (!is_preloaded[std::size_t(job)]) dq->push(job);
    }
    deques.push_back(std::move(dq));
  }

  auto worker = [&](int w) {
    WorkDeque& self = *deques[std::size_t(w)];
    // One arena per worker, reused across every job it executes: steady-
    // state job turnover stops touching the allocator for slab storage.
    util::Arena arena;
    int job = -1;
    for (;;) {
      // Graceful drain: finish nothing new once the stop flag flips; jobs
      // already executing elsewhere complete and get journaled.
      if (stopped()) return;
      if (self.pop(job)) {
        execute(job, arena);
        continue;
      }
      bool stolen = false;
      for (int k = 1; k < threads && !stolen; ++k) {
        stolen = deques[std::size_t((w + k) % threads)]->steal(job);
      }
      if (stolen) {
        execute(job, arena);
        continue;
      }
      // Every deque looked empty: remaining jobs (if any) are executing on
      // other workers right now — no new work can appear.
      if (done.load(std::memory_order_acquire) >= total) return;
      std::this_thread::yield();
    }
  };

  if (remaining_jobs > 0 && !stopped()) {
    if (threads == 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(std::size_t(threads));
      for (int w = 0; w < threads; ++w) pool.emplace_back(worker, w);
      for (auto& t : pool) t.join();
    }
  }

  report.finished = done.load(std::memory_order_acquire);
  report.interrupted = report.finished < total;

  // The one guaranteed snapshot: emitted after the pool drains — complete
  // or interrupted — regardless of the throttle, so a subscriber always
  // sees the end state.
  if (opts.on_snapshot) {
    try {
      opts.on_snapshot(make_snapshot(true));
    } catch (...) {
      ++report.progress_errors;
    }
  }

  std::sort(report.failures.begin(), report.failures.end(),
            [](const SweepFailure& a, const SweepFailure& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.seed < b.seed;
            });
  return report;
}

namespace {

/// Rebuild PreloadedRuns from a journal scan, deduplicating slots (first
/// record wins — duplicates can only come from a hand-edited file).
std::vector<PreloadedRun> preload_from_scan(const JournalScan& scan,
                                            const std::vector<SweepCell>& cells,
                                            int runs) {
  std::vector<PreloadedRun> out;
  std::vector<char> seen(cells.size() * std::size_t(runs), 0);
  out.reserve(scan.entries.size());
  for (const JournalEntry& e : scan.entries) {
    if (e.cell >= cells.size() || int(e.run) >= runs) continue;
    char& mark = seen[e.cell * std::size_t(runs) + e.run];
    if (mark != 0) continue;
    mark = 1;

    PreloadedRun p;
    p.cell = e.cell;
    p.run = int(e.run);
    if (e.ok) {
      p.trace = deserialize_trace(e.payload.data(), e.payload.size());
    } else {
      SweepFailure f;
      f.seed = e.seed;
      f.what.assign(reinterpret_cast<const char*>(e.payload.data()),
                    e.payload.size());
      f.cls = e.cls;
      p.failure = std::move(f);
    }
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

SweepResult run_sweep(std::vector<SweepCell> cells, const SweepOptions& opts) {
  std::vector<ConditionAccumulator> accs;
  accs.reserve(cells.size());
  for (const SweepCell& c : cells) accs.emplace_back(c.scenario);

  // --- crash-safe journaling ----------------------------------------------
  std::optional<JournalWriter> writer;
  std::mutex journal_mu;
  std::vector<PreloadedRun> preloaded;
  std::vector<char> is_preloaded;
  if (!opts.journal_path.empty()) {
    const std::uint64_t fp = sweep_fingerprint(cells, opts.runs);
    if (auto scan = read_journal(opts.journal_path)) {
      if (scan->meta.fingerprint != fp) {
        throw JournalMismatchError(
            "journal '" + opts.journal_path +
            "' was written for a different grid (fingerprint mismatch); "
            "refusing to resume — delete it or pass the original grid");
      }
      preloaded = preload_from_scan(*scan, cells, opts.runs);
      writer = JournalWriter::append_to(opts.journal_path, scan->valid_bytes,
                                        opts.journal_sync);
    } else {
      JournalMeta meta;
      meta.fingerprint = fp;
      meta.runs = std::uint32_t(opts.runs);
      meta.cells = std::uint32_t(cells.size());
      meta.note = opts.journal_note;
      writer = JournalWriter::create(opts.journal_path, meta,
                                     opts.journal_sync);
    }
    is_preloaded.assign(cells.size() * std::size_t(opts.runs), 0);
    for (const PreloadedRun& p : preloaded) {
      is_preloaded[p.cell * std::size_t(opts.runs) + std::size_t(p.run)] = 1;
    }
  }

  SweepOptions jopts = opts;
  if (writer) {
    // Journal every fresh failure the moment it is final.
    jopts.on_failure = [&](const SweepFailure& f) {
      if (is_preloaded[f.cell * std::size_t(opts.runs) +
                       std::size_t(f.seed - cells[f.cell].scenario.seed)]) {
        return;  // re-reported preloaded failure, already on disk
      }
      JournalEntry e;
      e.cell = std::uint32_t(f.cell);
      e.run = std::uint32_t(f.seed - cells[f.cell].scenario.seed);
      e.seed = f.seed;
      e.ok = false;
      e.cls = f.cls;
      e.payload.assign(f.what.begin(), f.what.end());
      std::lock_guard lk(journal_mu);
      writer->append(e);
      if (opts.on_failure) opts.on_failure(f);
    };
  }

  const auto consume = [&](std::size_t cell, int run, RunTrace&& t) {
    if (writer &&
        !is_preloaded[cell * std::size_t(opts.runs) + std::size_t(run)]) {
      JournalEntry e;
      e.cell = std::uint32_t(cell);
      e.run = std::uint32_t(run);
      e.seed = cells[cell].scenario.seed + std::uint64_t(run);
      e.ok = true;
      e.trace_hash = trace_hash(t);
      e.payload = serialize_trace(t);
      std::lock_guard lk(journal_mu);
      writer->append(e);
    }
    accs[cell].add(t);
  };

  SweepResult res;
  res.report = sweep_jobs(cells, jopts, consume, preloaded);

  // Surface deferred write errors (ENOSPC/EIO under journal_sync=false)
  // now, while the caller can still react — not in a silent destructor.
  if (writer) writer->close();

  if (res.report.failed() != 0 && !res.report.interrupted &&
      opts.throw_on_failure) {
    std::ostringstream os;
    os << "run_sweep: " << res.report.failed() << " of "
       << cells.size() * std::size_t(opts.runs) << " jobs failed:";
    for (const SweepFailure& f : res.report.failures) {
      os << "\n  cell '" << f.cell_label << "' seed " << f.seed << ": "
         << f.what;
    }
    if (res.report.failures_suppressed > 0) {
      os << "\n  ... and " << res.report.failures_suppressed
         << " more (per-cell cap " << opts.max_failures_per_cell << ")";
    }
    throw std::runtime_error(os.str());
  }

  res.results.reserve(accs.size());
  for (ConditionAccumulator& a : accs) res.results.push_back(a.finalize());
  res.cells = std::move(cells);
  return res;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opts) {
  return run_sweep(spec.cells(), opts);
}

}  // namespace cgs::core
