#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "cgstream.hpp"
#include "grids.hpp"

namespace perfbench {

namespace core = cgs::core;
namespace fs = std::filesystem;
using cgs::stream::GameSystem;
using core::RunTrace;
using core::Scenario;
using core::SweepCell;
using core::Testbed;

namespace {

// --- workload definitions ----------------------------------------------------

/// 3-hop parking lot, 120 s, with no game stream: 2 BBR + 2 Cubic flows end
/// to end and on every hop a fluid population of background game streams
/// with Poisson churn.  Every other ParkingLotParams field keeps its default
/// (25 Mb/s hops, 2xBDP queues, one Cubic cross flow per hop, a ping flow,
/// TCP from t = 30 s).  Where the fleet's numbers come from is set out in
/// perfbench/README.md.
SweepCell multihop_cell(std::uint64_t seed) {
  core::ParkingLotParams p;
  p.game_flow = false;
  p.bbr_flows = 2;
  p.cubic_flows = 2;
  p.duration = std::chrono::seconds(120);
  p.seed = seed;
  Scenario sc = core::parking_lot_scenario(p);
  for (std::size_t hop = 0; hop < p.hops; ++hop) {
    cgs::net::FluidSourceSpec src;
    src.cls = cgs::net::FluidClass::kGameStream;
    src.link = "hop" + std::to_string(hop);
    src.sessions = 100;
    src.rate_mbps = 0.05;
    src.arrival_per_min = 60.0;
    src.mean_holding_s = 100.0;
    src.max_sessions = 2 * src.sessions;
    sc.fleet.sources.push_back(src);
  }
  return {"parkinglot3 2bbr+2cubic+3cross fleet", sc};
}

// --- helpers -------------------------------------------------------------------

/// Set-ups timed per pass; setup_s is their median over the run.
constexpr int kSetupReps = 20;

double ms(std::int64_t ns) { return double(ns) / 1e6; }

/// Run fn(0..n-1, worker) on `threads` threads (the calling thread, worker
/// 0, when 1).  The first exception a call throws stops the hand-out of
/// further indices and is rethrown once every thread has joined.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t, int)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;  // guarded by mu
  const auto loop = [&](int worker) {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i, worker);
    } catch (...) {
      std::lock_guard lk(mu);
      if (!error) error = std::current_exception();
      next = n;
    }
  };
  if (threads <= 1) {
    loop(0);
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(loop, t);
    for (std::thread& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
}

Counts counts_of(Testbed& bed, const RunTrace& t) {
  Counts c;
  c.events = bed.simulator().processed_events();
  cgs::net::TopologyGraph& g = bed.topology();
  for (std::size_t i = 0; i < g.link_count(); ++i) {
    c.link_pkts += g.link_at(i).packets_delivered();
    c.drops += g.link_at(i).queue().drops_total();
  }
  c.session_ticks = t.fleet.session_ticks;
  for (const Testbed::TcpFlow& f : bed.tcp_flows()) {
    c.acks += f.flow->receiver().acks_sent();
    c.retransmits += f.flow->sender().retransmits_total();
    c.rtos += f.flow->sender().rto_total();
  }
  for (const Testbed::GameFlow& gf : bed.game_flows()) {
    c.pkts_recv += gf.receiver->packets_received();
    c.pkts_lost += gf.receiver->packets_lost();
    c.frames_presented += gf.receiver->display().presented_total();
  }
  return c;
}

/// Install the delegating controller on every game stream of `cells`.
void trace_controllers(std::vector<SweepCell>& cells, SpanLog& log,
                       const std::uint32_t* job_parent,
                       const std::uint32_t* feedback_parent) {
  for (SweepCell& c : cells) {
    const GameSystem sys = c.scenario.system;
    c.scenario.controller_override = [sys, &log, job_parent,
                                      feedback_parent] {
      return std::make_unique<TracedController>(
          cgs::stream::make_controller(sys), log,
          job_parent != nullptr ? *job_parent : 0, feedback_parent);
    };
  }
}

/// A Tally shared by worker threads, with the hash check and the failure
/// report that feed it.
class SharedTally {
 public:
  SharedTally(Tally& tally, const RefTable& refs, std::uint64_t seed)
      : tally_(tally), refs_(refs), seed_(seed) {}

  void check(const std::string& label, std::uint64_t hash) {
    std::lock_guard lk(mu_);
    check_hash(refs_, label, seed_, hash, tally_);
  }
  void fail(const std::string& label, const std::string& what) {
    std::lock_guard lk(mu_);
    tally_.add(false);
    std::cerr << "perfbench: job '" << label << "' failed: " << what << "\n";
  }

 private:
  std::mutex mu_;  // guards tally_
  Tally& tally_;
  const RefTable& refs_;
  std::uint64_t seed_;
};

// --- untraced passes -------------------------------------------------------------

core::JournalMeta grid_meta(const std::vector<SweepCell>& cells) {
  core::JournalMeta meta;
  meta.fingerprint = core::sweep_fingerprint(cells, 1);
  meta.runs = 1;
  meta.cells = std::uint32_t(cells.size());
  return meta;
}

/// One set-up of a pass, timed on its own: build the workload's scenarios,
/// validate them and construct each cell's Testbed (destroyed untimed);
/// fig3_grid also creates a journal for the grid.
double setup_once(const Options& o, std::uint64_t sseed) {
  const auto t0 = Clock::now();
  const std::vector<SweepCell> cells = workload_cells(o.workload, sseed);
  double s = seconds_between(t0, Clock::now());
  for (const SweepCell& c : cells) {
    const auto a = Clock::now();
    c.scenario.validate();
    const Testbed bed(c.scenario);
    s += seconds_between(a, Clock::now());
  }
  if (o.workload == "fig3_grid") {
    const std::string jnl = o.scratch_dir + "/setup.jnl";
    const auto a = Clock::now();
    core::JournalWriter::create(jnl, grid_meta(cells), true).close();
    s += seconds_between(a, Clock::now());
    fs::remove(jnl);
  }
  return s;
}

/// One untraced pass of a single-threaded workload.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> cell_s;  // per cell index; -1 for a failed cell
  std::vector<std::optional<std::uint64_t>> hashes;
};

Pass untraced_pass(const Options& o, std::uint64_t sseed, const RefTable& refs,
                   Tally& tally) {
  Pass p;
  const auto t0 = Clock::now();
  const std::vector<SweepCell> cells = workload_cells(o.workload, sseed);
  p.cell_s.assign(cells.size(), -1.0);
  p.hashes.resize(cells.size());
  SharedTally shared(tally, refs, sseed);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    try {
      const auto a = Clock::now();
      cells[i].scenario.validate();
      Testbed bed(cells[i].scenario);
      const RunTrace t = bed.run();
      const std::uint64_t hash = core::trace_hash(t);
      p.cell_s[i] = seconds_between(a, Clock::now());
      p.hashes[i] = hash;
      shared.check(cells[i].label, hash);
    } catch (const std::exception& ex) {
      shared.fail(cells[i].label, ex.what());
    }
  }
  p.wall_s = seconds_between(t0, Clock::now());
  return p;
}

/// One untraced Fig 3 grid: run_sweep through write_sweep_csvs, timed as
/// the grid, with the hashes read back from the journal afterwards.
struct Grid {
  double sweep_s = 0.0;
  double wall_s = 0.0;
  std::vector<std::optional<std::uint64_t>> hashes;
};

core::SweepOptions sweep_options(const Options& o, const std::string& jnl) {
  core::SweepOptions so;
  so.runs = 1;
  so.threads = o.threads;
  so.journal_path = jnl;
  so.journal_sync = true;
  so.throw_on_failure = false;
  return so;
}

/// Per-cell hashes of a finished sweep's journal; cells without an ok
/// record stay empty.
std::vector<std::optional<std::uint64_t>> journal_hashes(
    const std::string& jnl, std::size_t cells) {
  std::vector<std::optional<std::uint64_t>> out(cells);
  if (const auto scan = core::read_journal(jnl)) {
    for (const core::JournalEntry& e : scan->entries) {
      if (e.ok && e.cell < cells) out[e.cell] = e.trace_hash;
    }
  }
  return out;
}

/// Count each cell's journaled hash toward `tally` (missing = failed).
void check_grid(const std::vector<SweepCell>& cells,
                const std::vector<std::optional<std::uint64_t>>& hashes,
                std::uint64_t sseed, const RefTable& refs, Tally& tally) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (hashes[i]) {
      check_hash(refs, cells[i].label, sseed, *hashes[i], tally);
    } else {
      tally.add(false);
      std::cerr << "perfbench: job '" << cells[i].label << "' has no result\n";
    }
  }
}

Grid untraced_grid(const Options& o, std::uint64_t sseed, const RefTable& refs,
                   Tally& tally, std::vector<std::string>& problems) {
  Grid g;
  const std::string jnl = o.scratch_dir + "/sweep.jnl";
  const std::vector<SweepCell> cells = workload_cells(o.workload, sseed);
  fs::remove(jnl);
  const auto t1 = Clock::now();
  const core::SweepResult res = core::run_sweep(cells, sweep_options(o, jnl));
  const auto t2 = Clock::now();
  const core::SweepCsvFiles files =
      core::write_sweep_csvs(o.scratch_dir + "/sweep", res);
  const auto t3 = Clock::now();
  g.sweep_s = seconds_between(t1, t2);
  g.wall_s = seconds_between(t1, t3);

  g.hashes = journal_hashes(jnl, cells.size());
  check_grid(cells, g.hashes, sseed, refs, tally);
  if (files.cell_rows != cells.size()) {
    problems.push_back("write_sweep_csvs wrote " +
                       std::to_string(files.cell_rows) + " cell rows");
  }
  return g;
}

// --- traced passes ---------------------------------------------------------------

/// Everything one traced unit recorded.
struct TracedUnit {
  std::unique_ptr<SpanLog> log = std::make_unique<SpanLog>();
  double wall_s = 0.0;  // comparable with the untraced unit's wall
  std::vector<CellRow> rows;
  std::vector<double> build_s;  // validate + Testbed construction per cell
  std::vector<std::uint32_t> run_span;  // per cell: its Testbed::run span
  std::vector<std::optional<std::uint64_t>> hashes;
  std::vector<std::vector<unsigned char>> payloads;  // serialized traces
  double trace_kb = 0.0;
  double journal_mb = 0.0;
  std::uint32_t pass_span = 0;  // the span the unit's jobs ran under
  const char* job_name = "cell";
  int workers = 1;
};

/// Run every cell through Testbed on `threads` threads with spans around
/// validate, construction, run and trace_hash.  With `sweep_arenas` each
/// worker builds its Testbeds on its own arena, reset before every cell, as
/// run_sweep's workers do; otherwise Testbed(scenario), as the untraced
/// single-threaded pass does.  Keeps the serialized traces when
/// `keep_payloads`.
void traced_cells(const std::vector<SweepCell>& cells, int threads,
                  bool sweep_arenas, std::uint32_t parent, bool keep_payloads,
                  TracedUnit& u, SharedTally& shared) {
  const std::size_t n = cells.size();
  u.rows.assign(n, {});
  u.build_s.assign(n, 0.0);
  u.run_span.assign(n, 0);
  u.hashes.assign(n, std::nullopt);
  u.payloads.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) u.rows[i].label = cells[i].label;
  std::vector<cgs::util::Arena> arenas(sweep_arenas ? std::size_t(threads) : 0);

  parallel_for(n, threads, [&](std::size_t i, int worker) {
    Tracer tr(*u.log);
    // The delegating controller files its feedback spans under the run
    // span of the cell it belongs to.
    std::uint32_t run_parent = 0;
    std::vector<SweepCell> one = {cells[i]};
    trace_controllers(one, *u.log, nullptr, &run_parent);
    Scenario& sc = one[0].scenario;
    try {
      const ScopedSpan cell(tr, "cell", parent);
      const auto a = Clock::now();
      {
        const ScopedSpan s(tr, "core.scenario.validate", cell.id());
        sc.validate();
      }
      std::optional<Testbed> bed;
      {
        const ScopedSpan s(tr, "core.testbed.build", cell.id());
        if (sweep_arenas) {
          cgs::util::Arena& arena = arenas[std::size_t(worker)];
          arena.reset();
          bed.emplace(sc, &arena);
        } else {
          bed.emplace(sc);
        }
      }
      u.build_s[i] = seconds_between(a, Clock::now());
      RunTrace t;
      {
        const ScopedSpan s(tr, "core.testbed.run", cell.id());
        run_parent = s.id();
        u.run_span[i] = s.id();
        t = bed->run();
      }
      {
        const ScopedSpan s(tr, "core.metrics.hash", cell.id());
        u.hashes[i] = core::trace_hash(t);
      }
      shared.check(cells[i].label, *u.hashes[i]);
      u.rows[i].counts = counts_of(*bed, t);
      if (keep_payloads) {
        const ScopedSpan s(tr, "core.journal.serialize", cell.id());
        u.payloads[i] = core::serialize_trace(t);
      }
    } catch (const std::exception& ex) {
      shared.fail(cells[i].label, ex.what());
    }
  });
}

/// Replay serialized traces through the bookkeeping path outside any timed
/// region: deserialize_trace, trace_hash, ConditionAccumulator::add,
/// serialize_trace and an fsync'd JournalWriter::append to a scratch
/// journal, then write_sweep_csvs.
void replay(const std::vector<SweepCell>& cells, const Options& o,
            std::uint64_t sseed, TracedUnit& u,
            std::vector<std::string>& problems) {
  Tracer tr(*u.log);
  const ScopedSpan root(tr, "replay", 0);
  std::vector<core::ConditionAccumulator> accs;
  for (const SweepCell& c : cells) accs.emplace_back(c.scenario);
  const std::string jnl = o.scratch_dir + "/replay.jnl";
  fs::remove(jnl);
  core::JournalWriter w = core::JournalWriter::create(jnl, grid_meta(cells));
  std::size_t bytes = 0, traces = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (u.payloads[i].empty()) continue;
    RunTrace t;
    {
      const ScopedSpan s(tr, "core.journal.deserialize", root.id());
      t = core::deserialize_trace(u.payloads[i].data(), u.payloads[i].size());
    }
    std::uint64_t hash = 0;
    {
      const ScopedSpan s(tr, "core.metrics.hash", root.id());
      hash = core::trace_hash(t);
    }
    {
      const ScopedSpan s(tr, "core.aggregate.add", root.id());
      accs[i].add(t);
    }
    core::JournalEntry e;
    e.cell = std::uint32_t(i);
    e.seed = sseed;
    e.ok = true;
    e.trace_hash = hash;
    {
      const ScopedSpan s(tr, "core.journal.serialize", root.id());
      e.payload = core::serialize_trace(t);
    }
    if (hash != u.hashes[i] || e.payload != u.payloads[i]) {
      problems.push_back("replay of '" + cells[i].label +
                         "' does not round-trip");
    }
    bytes += e.payload.size();
    ++traces;
    {
      const ScopedSpan s(tr, "core.journal.append", root.id());
      w.append(e);
    }
  }
  w.close();
  u.trace_kb = traces == 0 ? 0.0 : double(bytes) / 1024.0 / double(traces);
  u.journal_mb = double(fs::file_size(jnl)) / (1024.0 * 1024.0);
  fs::remove(jnl);

  core::SweepResult r;
  r.cells = cells;
  for (const core::ConditionAccumulator& a : accs) {
    r.results.push_back(a.finalize());
  }
  const ScopedSpan s(tr, "core.report.csv", root.id());
  (void)core::write_sweep_csvs(o.scratch_dir + "/replay", r);
}

/// Traced pass of a single-threaded workload: the traced cells are the
/// pass, timed like the untraced one.
TracedUnit traced_pass(const Options& o, std::uint64_t sseed,
                       SharedTally& shared, std::vector<std::string>& problems) {
  TracedUnit u;
  const auto t0 = Clock::now();
  std::vector<SweepCell> cells;
  {
    Tracer tr(*u.log);
    const ScopedSpan pass(tr, "pass", 0);
    u.pass_span = pass.id();
    {
      const ScopedSpan s(tr, "core.scenario.build", pass.id());
      cells = workload_cells(o.workload, sseed);
    }
    traced_cells(cells, 1, false, pass.id(), true, u, shared);
  }
  u.wall_s = seconds_between(t0, Clock::now());
  replay(cells, o, sseed, u, problems);
  return u;
}

/// Traced Fig 3 grid: run_sweep with the delegating controller (its
/// lifetime gives the job spans), then every cell once more through Testbed
/// on as many threads, each with its own arena as in run_sweep, for the
/// per-cell breakdown and exact counts, then the sweep's journal replayed
/// through the bookkeeping path.
TracedUnit traced_grid(const Options& o, std::uint64_t sseed,
                       const RefTable& refs, SharedTally& shared,
                       Tally& tally, std::vector<std::string>& problems) {
  TracedUnit u;
  u.job_name = "core.sweep.job";
  u.workers = o.threads;
  const std::string jnl = o.scratch_dir + "/sweep.jnl";
  const std::vector<SweepCell> cells = workload_cells(o.workload, sseed);
  std::vector<SweepCell> traced = cells;
  trace_controllers(traced, *u.log, &u.pass_span, nullptr);

  fs::remove(jnl);
  const auto t0 = Clock::now();
  {
    Tracer tr(*u.log);
    core::SweepResult res;
    {
      const ScopedSpan s(tr, "core.sweep.run_sweep", 0);
      u.pass_span = s.id();
      res = core::run_sweep(traced, sweep_options(o, jnl));
    }
    const ScopedSpan s(tr, "core.report.csv", 0);
    (void)core::write_sweep_csvs(o.scratch_dir + "/sweep", res);
  }
  u.wall_s = seconds_between(t0, Clock::now());

  traced_cells(cells, o.threads, true, 0, false, u, shared);

  std::optional<core::JournalScan> scan;
  {
    Tracer tr(*u.log);
    const ScopedSpan s(tr, "core.journal.read", 0);
    scan = core::read_journal(jnl);
  }
  std::vector<std::optional<std::uint64_t>> journaled(cells.size());
  if (scan) {
    for (core::JournalEntry& e : scan->entries) {
      if (!e.ok || e.cell >= cells.size()) continue;
      journaled[e.cell] = e.trace_hash;
      u.payloads[e.cell] = std::move(e.payload);
    }
  }
  scan.reset();
  check_grid(cells, journaled, sseed, refs, tally);
  if (journaled != u.hashes) {
    problems.push_back("run_sweep and Testbed hashes differ");
  }
  u.hashes = journaled;
  replay(cells, o, sseed, u, problems);
  return u;
}

// --- metrics -----------------------------------------------------------------------

std::vector<double> durations_ns(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(double(s.duration_ns()));
  }
  return out;
}

/// Per-layer metrics of one traced unit (trace.overhead_s is the caller's).
std::map<std::string, double> layer_metrics(TracedUnit& u, Counts& total) {
  const std::vector<Span>& spans = u.log->spans();
  std::unordered_map<std::uint32_t, std::vector<Span>> children;
  std::unordered_map<std::uint32_t, const Span*> by_id;
  for (const Span& s : spans) {
    children[s.parent].push_back(s);
    by_id[s.id] = &s;
  }
  const Span* pass = by_id[u.pass_span];
  if (pass == nullptr) throw std::logic_error("traced unit has no pass span");

  double run_s = 0.0, run_self_s = 0.0;
  total = Counts{};
  for (std::size_t i = 0; i < u.rows.size(); ++i) {
    CellRow& row = u.rows[i];
    if (const Span* run = by_id[u.run_span[i]]) {
      const std::vector<Span>& kids = children[run->id];
      row.run_s = double(run->duration_ns()) / 1e9;
      row.run_self_s = double(self_time_ns(*run, kids)) / 1e9;
      row.counts.controller_calls = kids.size();
    }
    run_s += row.run_s;
    run_self_s += row.run_self_s;
    total += row.counts;
  }

  // Jobs: sweep job spans (fig3_grid) or cell spans (one worker).
  std::vector<double> jobs;
  std::map<std::uint32_t, std::int64_t> last_end;  // per worker thread
  for (const Span& s : children[pass->id]) {
    if (std::string_view(s.name) != u.job_name) continue;
    jobs.push_back(double(s.duration_ns()) / 1e9);
    std::int64_t& end = last_end[s.thread];
    end = std::max(end, s.end_ns);
  }
  double busy = 0.0;
  for (double j : jobs) busy += j;
  std::int64_t first_idle = pass->end_ns;
  for (const auto& [thread, end] : last_end) first_idle = std::min(first_idle, end);
  const double pass_s = double(pass->duration_ns()) / 1e9;

  const auto per = [](double num, std::uint64_t den) {
    return den == 0 ? 0.0 : num / double(den);
  };
  std::map<std::string, double> m;
  m["sim.events"] = double(total.events);
  m["sim.ns_per_event"] = per(run_s * 1e9, total.events);
  m["net.link_pkts"] = double(total.link_pkts);
  m["net.ns_per_link_pkt"] = per(run_s * 1e9, total.link_pkts);
  m["net.drops"] = double(total.drops);
  m["net.fluid.session_ticks"] = double(total.session_ticks);
  m["tcp.acks"] = double(total.acks);
  m["tcp.retransmits"] = double(total.retransmits);
  m["tcp.rtos"] = double(total.rtos);
  m["stream.pkts_recv"] = double(total.pkts_recv);
  m["stream.pkts_lost"] = double(total.pkts_lost);
  m["stream.frames_presented"] = double(total.frames_presented);
  m["stream.controller.calls"] = double(total.controller_calls);
  m["stream.controller.ns_per_call"] =
      median(durations_ns(spans, "stream.controller.on_feedback"));
  m["core.testbed.build_ms"] = median(u.build_s) * 1e3;
  m["core.testbed.run_s"] = run_s;
  m["core.testbed.run_self_s"] = run_self_s;
  m["core.metrics.hash_ms"] = ms(std::int64_t(
      median(durations_ns(spans, "core.metrics.hash"))));
  m["core.collectors.trace_kb"] = u.trace_kb;
  m["core.journal.serialize_ms"] = ms(std::int64_t(
      median(durations_ns(spans, "core.journal.serialize"))));
  m["core.journal.append_ms"] = ms(std::int64_t(
      median(durations_ns(spans, "core.journal.append"))));
  m["core.journal.mb"] = u.journal_mb;
  m["core.aggregate.add_ms"] = ms(std::int64_t(
      median(durations_ns(spans, "core.aggregate.add"))));
  m["core.report.csv_ms"] = ms(std::int64_t(
      median(durations_ns(spans, "core.report.csv"))));
  m["core.sweep.job_p50_s"] = median(jobs);
  m["core.sweep.busy_frac"] = busy / (double(u.workers) * pass_s);
  m["core.sweep.tail_s"] = double(pass->end_ns - first_idle) / 1e9;
  return m;
}

}  // namespace

Counts& Counts::operator+=(const Counts& o) {
  events += o.events;
  link_pkts += o.link_pkts;
  drops += o.drops;
  session_ticks += o.session_ticks;
  acks += o.acks;
  retransmits += o.retransmits;
  rtos += o.rtos;
  pkts_recv += o.pkts_recv;
  pkts_lost += o.pkts_lost;
  frames_presented += o.frames_presented;
  controller_calls += o.controller_calls;
  return *this;
}

std::vector<SweepCell> workload_cells(const std::string& workload,
                                      std::uint64_t scenario_seed) {
  if (workload == "fig3_grid") return cgs::tools::competing_grid(scenario_seed);
  if (workload == "paper_cells") {
    // Fig 2's cells: the competing grid's 25 Mb/s, 2xBDP ones.
    std::vector<SweepCell> cells;
    for (SweepCell& c : cgs::tools::competing_grid(scenario_seed)) {
      if (c.scenario.capacity.megabits_per_sec() == 25.0 &&
          c.scenario.queue_bdp_mult == 2.0) {
        cells.push_back(std::move(c));
      }
    }
    return cells;
  }
  if (workload == "multihop_tcp") return {multihop_cell(scenario_seed)};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

void check_hash(const RefTable& refs, const std::string& label,
                std::uint64_t seed, std::uint64_t hash, Tally& tally) {
  const bool ok = refs.matches(label, seed, hash);
  if (!ok) {
    std::cerr << "perfbench: job '" << label << "' seed " << seed
              << ": trace_hash differs from the reference\n";
  }
  tally.add(ok);
}

Result run_workload(const Options& o) {
  Result r;
  const std::uint64_t sseed = scenario_seed(o.seed);
  const RefTable refs = RefTable::load(o.refs_path);
  const bool grid = o.workload == "fig3_grid";
  r.cells_per_pass = workload_cells(o.workload, sseed).size();

  // Host-kernel samples per pass: a grid pass takes about 10 s against a
  // multihop pass's 0.3 s, so it gets ten samples to one.
  const int kernel_reps = grid ? 10 : 1;
  std::vector<double> walls, setups, pool_cell_s, cell_s, kernel_s;
  std::map<std::string, std::vector<double>> layer;
  std::optional<Counts> counts;
  std::unique_ptr<SpanLog> last_log;

  const auto start = Clock::now();
  do {
    for (int k = 0; k < kernel_reps; ++k) kernel_s.push_back(host_kernel_s());
    double untraced_wall = 0.0;
    std::vector<std::optional<std::uint64_t>> hashes;
    if (grid) {
      Grid g;
      try {
        g = untraced_grid(o, sseed, refs, r.tally, r.problems);
      } catch (const std::exception& ex) {
        // The sweep itself failed: every job of the grid is lost.
        std::cerr << "perfbench: fig3_grid failed: " << ex.what() << "\n";
        for (std::size_t i = 0; i < r.cells_per_pass; ++i) r.tally.add(false);
        continue;
      }
      walls.push_back(g.wall_s);
      pool_cell_s.push_back(g.sweep_s * o.threads / double(r.cells_per_pass));
      untraced_wall = g.wall_s;
      hashes = g.hashes;
    } else {
      const Pass p = untraced_pass(o, sseed, refs, r.tally);
      walls.push_back(p.wall_s);
      for (double c : p.cell_s) {
        if (c >= 0) cell_s.push_back(c);
      }
      untraced_wall = p.wall_s;
      hashes = p.hashes;
    }
    for (int k = 0; k < kSetupReps; ++k) setups.push_back(setup_once(o, sseed));
    ++r.passes;
    if (!o.trace) continue;

    SharedTally shared(r.tally, refs, sseed);
    TracedUnit u =
        grid ? traced_grid(o, sseed, refs, shared, r.tally, r.problems)
             : traced_pass(o, sseed, shared, r.problems);
    if (u.hashes != hashes) {
      r.problems.push_back("traced hashes differ from untraced ones");
    }
    Counts total;
    for (const auto& [name, value] : layer_metrics(u, total)) {
      layer[name].push_back(value);
    }
    layer["trace.overhead_s"].push_back(u.wall_s - untraced_wall);
    if (counts && !(*counts == total)) {
      r.problems.push_back("exact counts differ between traced passes");
    }
    counts = total;
    r.cells = u.rows;
    last_log = std::move(u.log);
  } while (seconds_between(start, Clock::now()) < o.seconds);
  for (int k = 0; k < kernel_reps; ++k) kernel_s.push_back(host_kernel_s());

  // The host's speed drifts from second to second and from minute to
  // minute: back-to-back passes of the same multihop cell read 0.32-0.55 s,
  // and within twenty minutes both the Fig 3 grid and the host kernel ran
  // about 1.6x faster.  Each time is the run's median, scaled by the run's
  // host speed.
  r.host_kernel_s = median(kernel_s);
  r.scale = kHostKernelRefS / r.host_kernel_s;
  r.measured["cell_s"] = median(grid ? pool_cell_s : cell_s);
  r.measured["grid_s"] = median(walls);
  r.measured["setup_s"] = median(setups);
  for (const auto& [name, value] : r.measured) {
    r.end_to_end[name] = value * r.scale;
  }
  r.end_to_end["peak_rss_mb"] = peak_rss_mb();
  if (!o.trace) {
    r.metrics = r.end_to_end;
  } else {
    for (const auto& [name, values] : layer) r.metrics[name] = median(values);
    if (last_log) last_log->write_tsv(o.scratch_dir + "/spans.tsv");
  }
  return r;
}

void record_references(const Options& o) {
  RefTable refs = RefTable::load(o.refs_path);
  std::mutex mu;
  for (std::uint64_t s = 1; s <= kSeedSpan; ++s) {
    const std::vector<SweepCell> cells = workload_cells(o.workload, s);
    parallel_for(cells.size(), o.threads, [&](std::size_t i, int) {
      Testbed bed(cells[i].scenario);
      const std::uint64_t hash = core::trace_hash(bed.run());
      std::lock_guard lk(mu);
      refs.put(cells[i].label, s, hash);
    });
    std::cerr << "perfbench: recorded " << o.workload << " scenario seed " << s
              << "\n";
  }
  refs.save(o.refs_path);
}

}  // namespace perfbench
