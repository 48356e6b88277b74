// sweep — run a named grid (tools/grids.hpp) on the sweep engine and
// write the per-cell CSV.  Every bench but ext_video_competition renders
// a named grid, so its numbers can be swept, journaled, resumed and
// replayed:
//
//   sweep --grid=fig3    # 2 CC x 3 systems x 3 capacities x 3 queues (54);
//                        # fig4, table4 and table5 name the same grid
//   sweep --grid=table3  # solo: 3 systems x 3 capacities x 3 queues (27)
//   sweep --grid=table1  # likewise table1, fig2, aqm, tcp_pairs,
//                        # controller, multiflow and harm: each bench's grid
//   sweep --grid=smoke   # 30 s schedule, 2 systems x 2 queues (CI)
//   sweep --grid=sick    # 1 healthy + 1 watchdog-tripping cell (triage CI)
//   sweep --grid=poison  # 1 healthy + crash/oom/spin cells (chaos CI)
//   sweep --grid=fleet   # hybrid-fidelity fleet: sessions x churn (CI)
//
// Fault isolation: --isolation=forked runs every (cell, seed) job in a
// fork()ed child under a supervisor, so a crashing or runaway scenario
// kills only its own job.  --job-timeout / --job-mem / --job-cpu cap each
// child's wall clock, address space and CPU time.  A child's death is
// final like any failure: the job lands in the failure CSV once, and
// replay --failed re-runs it in the same sandbox.  These three flags act
// only on forked children, so without --isolation=forked they are a usage
// error rather than a silent no-op.  Forked results are bit-identical to
// in-process.
//
// Crash safety: --journal=PATH appends every finished (cell, seed) job to
// an fsync'd journal; re-running the same command after a crash (or after
// SIGINT/SIGTERM, which drain gracefully) resumes from it and produces
// results bit-identical to an uninterrupted sweep.  The resume command
// printed on an interrupt repeats --csv and the isolation flags as given,
// so a forked sweep resumes forked.  Failed jobs are triaged by error
// class, dumped to <prefix>_failures.csv and reflected in the exit status:
//
//   0  clean sweep (and verify passed, when requested)
//   1  --verify mismatch (streaming != batch)
//   2  usage error / unknown grid / journal error (not a CGS journal,
//      unreadable, or a failed write: the journal ends at the torn record
//      and the same command resumes from it) / an output CSV that could
//      not be written in full (the message names the file)
//   3  sweep completed but some jobs failed (see the triage table)
//   4  interrupted (SIGINT/SIGTERM) — partial results journaled, resumable
//   5  refused to resume: journal belongs to a different grid
//
// --verify re-runs every cell through the sequential batch path (a serial
// Testbed loop over the cell's seeds + summarize), outside the sweep
// engine it checks, and fails unless the streaming results match —
// the end-to-end determinism check the CI sweep-smoke job asserts.
// Prints wall-clock and peak-RSS so EXPERIMENTS.md recipes can quote them.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cgstream.hpp"
#include "exit_codes.hpp"
#include "grids.hpp"

namespace {

using cgs::core::SweepCell;
using cgs::tools::kExitInterrupted;
using cgs::tools::kExitJobsFailed;
using cgs::tools::kExitJournalMismatch;
using cgs::tools::kExitOk;
using cgs::tools::kExitUsage;
using cgs::tools::kExitVerifyFailed;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

struct Args {
  std::string grid = "fig3";
  int runs = 5;
  int threads = 0;
  std::uint64_t seed = 42;
  std::string csv_prefix;
  std::string journal;
  bool verify = false;
  bool progress = true;
  // Fault isolation (forked workers, core/proc.hpp).
  bool forked = false;
  double job_timeout_s = 0;  // supervisor wall deadline per job
  double job_mem_mb = 0;     // RLIMIT_AS per job
  int job_cpu_s = 0;         // RLIMIT_CPU per job
  // --csv and the isolation flags exactly as given, for the resume hint.
  std::string resume_flags;
};

Args parse_args(int argc, char** argv) {
  Args a;
  const char* forked_only = nullptr;  // last forked-only flag given
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--grid=", 7) == 0) {
      a.grid = arg + 7;
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      a.runs = int(cgs::tools::whole_arg("--runs", arg + 7, 1, INT_MAX));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      a.threads = int(cgs::tools::whole_arg("--threads", arg + 10, 0, INT_MAX));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      a.seed = cgs::tools::whole_arg("--seed", arg + 7, 0, UINT64_MAX);
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      a.csv_prefix = arg + 6;
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      a.journal = arg + 10;
    } else if (std::strncmp(arg, "--isolation=", 12) == 0) {
      const char* mode = arg + 12;
      if (std::strcmp(mode, "forked") == 0) {
        a.forked = true;
      } else if (std::strcmp(mode, "inprocess") == 0) {
        a.forked = false;
      } else {
        std::fprintf(stderr, "unknown isolation '%s' (forked|inprocess)\n",
                     mode);
        std::exit(kExitUsage);
      }
    } else if (std::strncmp(arg, "--job-timeout=", 14) == 0) {
      a.job_timeout_s = cgs::tools::real_arg("--job-timeout", arg + 14);
      forked_only = "--job-timeout";
    } else if (std::strncmp(arg, "--job-mem=", 10) == 0) {
      a.job_mem_mb = cgs::tools::real_arg("--job-mem", arg + 10);
      forked_only = "--job-mem";
    } else if (std::strncmp(arg, "--job-cpu=", 10) == 0) {
      a.job_cpu_s =
          int(cgs::tools::whole_arg("--job-cpu", arg + 10, 0, INT_MAX));
      forked_only = "--job-cpu";
    } else if (std::strcmp(arg, "--verify") == 0) {
      a.verify = true;
    } else if (std::strcmp(arg, "--no-progress") == 0) {
      a.progress = false;
    } else {
      // --help asks for the usage on stdout; any other flag is a usage
      // error, reported on stderr so it never mixes into captured output.
      const bool help = std::strcmp(arg, "--help") == 0;
      std::fprintf(
          help ? stdout : stderr,
          "usage: sweep [--grid=NAME] [--runs=N]\n"
          "             [--threads=N] [--seed=S] [--csv=PREFIX]\n"
          "             [--journal=PATH] [--verify]\n"
          "             [--no-progress]\n"
          "             [--isolation=forked|inprocess]\n"
          "             [--job-timeout=SECS] [--job-mem=MB] [--job-cpu=SECS]\n"
          "grids: %s\n",
          cgs::tools::grid_names().c_str());
      std::exit(help ? kExitOk : kExitUsage);
    }
    for (const char* flag : {"--csv=", "--isolation=", "--job-timeout=",
                             "--job-mem=", "--job-cpu="}) {
      if (std::strncmp(arg, flag, std::strlen(flag)) == 0) {
        a.resume_flags += ' ';
        a.resume_flags += arg;
      }
    }
  }
  if (forked_only != nullptr && !a.forked) {
    std::fprintf(stderr, "%s applies only to --isolation=forked\n",
                 forked_only);
    std::exit(kExitUsage);
  }
  if (a.csv_prefix.empty()) a.csv_prefix = a.grid;
  return a;
}

/// True when a and b agree exactly or to 1e-9 relative.
bool close(double a, double b) {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= 1e-9 * scale;
}

/// Compare the streaming sweep result against the batch path for one cell.
bool verify_cell(const SweepCell& cell, const cgs::core::ConditionResult& got,
                 int runs) {
  std::vector<cgs::core::RunTrace> traces;
  for (int i = 0; i < runs; ++i) {
    cgs::core::Scenario sc = cell.scenario;
    sc.seed += std::uint64_t(i);
    traces.push_back(cgs::core::Testbed(sc).run());
  }
  const auto want = cgs::core::summarize(cell.scenario, traces);

  bool ok = got.runs == want.runs &&
            got.game.mean.size() == want.game.mean.size() &&
            got.flow_rows.size() == want.flow_rows.size() &&
            got.link_rows.size() == want.link_rows.size();
  const std::pair<double, double> scalars[] = {
      {got.fairness_mean, want.fairness_mean},
      {got.fairness_sd, want.fairness_sd},
      {got.game_fair_mbps, want.game_fair_mbps},
      {got.tcp_fair_mbps, want.tcp_fair_mbps},
      {got.jain_mean, want.jain_mean},
      {got.jain_sd, want.jain_sd},
      {got.rtt_mean_ms, want.rtt_mean_ms},
      {got.rtt_sd_ms, want.rtt_sd_ms},
      {got.fps_mean, want.fps_mean},
      {got.loss_mean, want.loss_mean},
      {got.steady_mean_mbps, want.steady_mean_mbps},
      {got.rr.response_s, want.rr.response_s},
      {got.rr.recovery_s, want.rr.recovery_s},
  };
  for (auto [a, b] : scalars) ok = ok && close(a, b);
  for (std::size_t i = 0; ok && i < want.flow_rows.size(); ++i) {
    ok = close(got.flow_rows[i].fair_mbps_mean,
               want.flow_rows[i].fair_mbps_mean);
  }
  for (std::size_t i = 0; ok && i < want.link_rows.size(); ++i) {
    const auto& g = got.link_rows[i];
    const auto& w = want.link_rows[i];
    ok = close(g.util_fair_mean, w.util_fair_mean) &&
         close(g.drops_mean, w.drops_mean);
  }
  // Fleet population digests (when the cell runs a fluid fleet).
  ok = ok && got.fleet.active == want.fleet.active;
  if (got.fleet.active) {
    const std::pair<double, double> fleet_scalars[] = {
        {got.fleet.p50_mean, want.fleet.p50_mean},
        {got.fleet.p95_mean, want.fleet.p95_mean},
        {got.fleet.p99_mean, want.fleet.p99_mean},
        {got.fleet.mean_mbps_mean, want.fleet.mean_mbps_mean},
        {got.fleet.stall_mean, want.fleet.stall_mean},
        {got.fleet.jain_mean, want.fleet.jain_mean},
        {got.fleet.peak_sessions_mean, want.fleet.peak_sessions_mean},
        {got.fleet.arrivals_mean, want.fleet.arrivals_mean},
        {got.fleet.departures_mean, want.fleet.departures_mean},
    };
    for (auto [a, b] : fleet_scalars) ok = ok && close(a, b);
  }
  if (ok) {
    for (std::size_t i = 0; i < want.game.mean.size(); ++i) {
      ok = ok && close(got.game.mean[i], want.game.mean[i]) &&
           close(got.game.sd[i], want.game.sd[i]);
    }
  }
  if (!ok) {
    std::fprintf(stderr, "verify FAILED: cell '%s' streaming != batch\n",
                 cell.label.c_str());
  }
  return ok;
}

/// Triage table: failures grouped by (cell, class) with first messages.
void print_triage(const cgs::core::SweepReport& report) {
  std::fprintf(stderr, "\nfailure triage (%zu failed job%s):\n",
               report.failures.size(), report.failures.size() == 1 ? "" : "s");

  std::map<std::pair<std::string, cgs::core::ErrorClass>, int> groups;
  for (const auto& f : report.failures) {
    ++groups[{f.cell_label, f.cls}];
  }
  for (const auto& [key, n] : groups) {
    std::fprintf(stderr, "  %-12s %3d x  %s\n",
                 std::string(to_string(key.second)).c_str(), n,
                 key.first.c_str());
  }
  std::fprintf(stderr, "  first messages:\n");
  std::size_t shown = 0;
  for (const auto& f : report.failures) {
    if (shown++ >= 5) break;
    std::fprintf(stderr, "    seed %llu: %s\n",
                 (unsigned long long)f.seed, f.what.c_str());
  }
}

/// Dump every failure record as CSV for offline triage: what the journal
/// holds for it, under the cell's label.
void write_failures_csv(const std::string& path,
                        const cgs::core::SweepReport& report) {
  cgs::CsvWriter csv(path);
  csv.header({"cell", "seed", "class", "message"});
  for (const auto& f : report.failures) {
    csv.row({f.cell_label, std::to_string(f.seed),
             std::string(to_string(f.cls)), f.what});
  }
  csv.close();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  auto cells_opt = cgs::tools::grid_by_name(args.grid, args.seed);
  if (!cells_opt) {
    std::fprintf(stderr, "unknown grid '%s' (%s)\n", args.grid.c_str(),
                 cgs::tools::grid_names().c_str());
    return kExitUsage;
  }
  std::vector<SweepCell> cells = std::move(*cells_opt);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  cgs::core::SweepOptions opts;
  opts.runs = args.runs;
  opts.threads = args.threads;
  if (args.forked) {
    opts.isolation = cgs::core::Isolation::kForked;
    opts.limits.wall_seconds = args.job_timeout_s;
    opts.limits.cpu_seconds = args.job_cpu_s;
    opts.limits.address_space_bytes =
        std::uint64_t(args.job_mem_mb * 1024.0 * 1024.0);
  }
  opts.stop = &g_stop;
  opts.throw_on_failure = false;
  opts.journal_path = args.journal;
  opts.journal_note = "grid=" + args.grid + " seed=" +
                      std::to_string(args.seed) +
                      " runs=" + std::to_string(args.runs);
  if (args.progress) {
    // One repaint per delivered job, one last line when the pool drains.
    opts.on_snapshot = [](const cgs::core::ProgressSnapshot& s) {
      std::fprintf(stderr, "\r%d / %d runs (%zu/%zu cells", s.finished,
                   s.total, s.cells_finished, s.cells);
      if (s.failed > 0) std::fprintf(stderr, ", %d failed", s.failed);
      std::fprintf(stderr, ")");
      if (s.final) std::fprintf(stderr, "\n");
    };
  }

  const std::string journal_suffix =
      args.journal.empty() ? "" : " (journal: " + args.journal + ")";
  std::printf("sweep '%s': %zu cells x %d runs%s\n", args.grid.c_str(),
              cells.size(), args.runs, journal_suffix.c_str());
  const auto t0 = std::chrono::steady_clock::now();
  cgs::core::SweepResult sweep;
  try {
    sweep = cgs::core::run_sweep(cells, opts);
  } catch (const cgs::core::JournalMismatchError& e) {
    std::fprintf(stderr, "\n%s\n", e.what());
    return kExitJournalMismatch;
  } catch (const cgs::core::JournalError& e) {
    std::fprintf(stderr, "\n%s\n", e.what());
    return kExitUsage;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& report = sweep.report;

  if (report.skipped > 0) {
    std::printf("resumed: %d of %d jobs restored from the journal\n",
                report.skipped, report.total);
  }

  if (report.interrupted) {
    std::fprintf(stderr,
                 "\ninterrupted: %d of %d jobs finished (%d remaining)%s\n",
                 report.finished, report.total, report.remaining(),
                 args.journal.empty()
                     ? " — no journal, progress is lost"
                     : ", journaled and resumable");
    if (!args.journal.empty()) {
      std::fprintf(stderr,
                   "resume with:\n  sweep --grid=%s --runs=%d --seed=%llu "
                   "--journal=%s%s\n",
                   args.grid.c_str(), args.runs,
                   (unsigned long long)args.seed, args.journal.c_str(),
                   args.resume_flags.c_str());
    }
    return kExitInterrupted;
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = double(ru.ru_maxrss) / 1024.0;  // Linux: KiB

  // One shared writer (core/report) defines the CSV format — the
  // crash-recovery cmp checks depend on that.  Every file is written in
  // full before any is reported; one that cannot be is an error like a
  // failed journal write.
  const std::string failures_path = args.csv_prefix + "_failures.csv";
  cgs::core::SweepCsvFiles files;
  try {
    files = cgs::core::write_sweep_csvs(args.csv_prefix, sweep);
    if (!report.failures.empty()) write_failures_csv(failures_path, report);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "\n%s\n", e.what());
    return kExitUsage;
  }
  std::printf("wrote %s (%zu cells) — wall %.1f s, peak RSS %.1f MB\n",
              files.cells_path.c_str(), files.cell_rows, wall, peak_rss_mb);
  std::printf("wrote %s (%zu link rows)\n", files.links_path.c_str(),
              files.link_rows);
  if (!files.fleet_path.empty()) {
    std::printf("wrote %s (%zu fleet rows)\n", files.fleet_path.c_str(),
                files.fleet_rows);
  }

  if (!report.failures.empty()) {
    print_triage(report);
    std::fprintf(stderr, "wrote %s (%zu failure records)\n",
                 failures_path.c_str(), report.failures.size());
    if (!args.journal.empty()) {
      std::fprintf(stderr,
                   "replay a failure with:\n  replay --journal=%s --failed\n",
                   args.journal.c_str());
    }
    return kExitJobsFailed;
  }

  if (args.verify) {
    bool all_ok = true;
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      all_ok = verify_cell(sweep.cells[i], sweep.results[i], args.runs) &&
               all_ok;
    }
    if (!all_ok) return kExitVerifyFailed;
    std::printf("verify OK: streaming == batch for all %zu cells\n",
                sweep.cells.size());
  }
  return kExitOk;
}
