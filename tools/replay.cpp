// replay — deterministically re-run journaled sweep jobs, one at a time.
//
//   replay --journal=fig3.jnl --failed        # re-run every failed job
//   replay --journal=fig3.jnl --seed=44       # re-run one seed (all cells)
//   replay --journal=fig3.jnl --cell=Stadia   # filter by cell substring
//   replay --journal=fig3.jnl --all           # re-run everything
//   replay --journal=bench.jnl --grid=fig3 --gridseed=42 --runs=1 --all
//                                             # journal without a grid note
//   replay --grid=sick --gridseed=42 --runs=3 --cellindex=1 --seed=43
//                                             # explicit job, no journal
//
// The journal's provenance note ("grid=... seed=... runs=...") names the
// grid; explicit --grid/--gridseed/--runs take its place.  The rebuilt
// grid must match the fingerprint in the journal header, so replay runs
// the *exact* scenario a sweep worker ran — same cell mutators, same
// derived seed — and re-runs it single-threaded
// with the invariant auditor forced on and a per-packet TraceLog attached
// to every topology link.  Successful journal records must reproduce their
// trace hash bit-for-bit; failed records must fail again with the same
// error class.  --csv=PREFIX writes the per-event packet log per job; a
// log that cannot be written in full exits 2 naming the file.
//
// Process-class failures (crash/timeout/resource, journaled by a forked
// sweep) are replayed inside a forked sandbox — a reproducing SIGSEGV
// kills the child, not the tool — under --job-timeout/--job-mem/--job-cpu
// caps.  Only the error class is verified there: the packet log dies with
// the child.
//
// Exit: 0 all replays reproduced, 1 any mismatch, 2 usage/journal/CSV error,
// 5 the rebuilt grid does not match the journal's fingerprint.
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cgstream.hpp"
#include "exit_codes.hpp"
#include "grids.hpp"

namespace {

using cgs::core::JournalEntry;
using cgs::tools::kExitJournalMismatch;
using cgs::tools::kExitOk;
using cgs::tools::kExitUsage;
using cgs::tools::kExitVerifyFailed;
using cgs::core::Scenario;
using cgs::core::SweepCell;

struct Args {
  std::string journal;
  std::string cell_filter;
  std::optional<std::uint64_t> seed;  // unset = no seed filter
  bool failed_only = false;
  bool all = false;
  std::string csv_prefix;
  // The grid: required in explicit-job mode, in place of the journal's
  // note otherwise.  Unset values fall back to the note (runs: to the
  // journal header), then to 42 and 5.
  std::string grid;
  std::optional<std::uint64_t> grid_seed;
  std::optional<int> runs;
  int cell_index = -1;
  // Sandbox caps for replaying process-class failures (crash/timeout/
  // resource) — those re-run fork()ed so a reproducing SIGSEGV kills the
  // sandbox child, not the replay tool.
  double job_timeout_s = 10;
  double job_mem_mb = 1024;
  int job_cpu_s = 0;
};

/// Print the usage to `out`: stdout for --help, stderr on a usage error.
void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: replay --journal=PATH [--failed | --all] [--cell=SUBSTR]\n"
      "              [--seed=S] [--csv=PREFIX]\n"
      "              [--grid=NAME [--gridseed=S] [--runs=N]]\n"
      "              [--job-timeout=SECS] [--job-mem=MB] [--job-cpu=SECS]\n"
      "       replay --grid=NAME --gridseed=S --runs=N\n"
      "              --cellindex=I --seed=S [--csv=PREFIX]\n"
      "grids: %s\n",
      cgs::tools::grid_names().c_str());
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--journal=", 10) == 0) {
      a.journal = arg + 10;
    } else if (std::strncmp(arg, "--cell=", 7) == 0) {
      a.cell_filter = arg + 7;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      a.seed = cgs::tools::whole_arg("--seed", arg + 7, 0, UINT64_MAX);
    } else if (std::strcmp(arg, "--failed") == 0) {
      a.failed_only = true;
    } else if (std::strcmp(arg, "--all") == 0) {
      a.all = true;
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      a.csv_prefix = arg + 6;
    } else if (std::strncmp(arg, "--grid=", 7) == 0) {
      a.grid = arg + 7;
    } else if (std::strncmp(arg, "--gridseed=", 11) == 0) {
      a.grid_seed =
          cgs::tools::whole_arg("--gridseed", arg + 11, 0, UINT64_MAX);
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      a.runs = int(cgs::tools::whole_arg("--runs", arg + 7, 1, INT_MAX));
    } else if (std::strncmp(arg, "--cellindex=", 12) == 0) {
      a.cell_index =
          int(cgs::tools::whole_arg("--cellindex", arg + 12, 0, INT_MAX));
    } else if (std::strncmp(arg, "--job-timeout=", 14) == 0) {
      a.job_timeout_s = cgs::tools::real_arg("--job-timeout", arg + 14);
    } else if (std::strncmp(arg, "--job-mem=", 10) == 0) {
      a.job_mem_mb = cgs::tools::real_arg("--job-mem", arg + 10);
    } else if (std::strncmp(arg, "--job-cpu=", 10) == 0) {
      a.job_cpu_s =
          int(cgs::tools::whole_arg("--job-cpu", arg + 10, 0, INT_MAX));
    } else {
      const bool help = std::strcmp(arg, "--help") == 0;
      usage(help ? stdout : stderr);
      std::exit(help ? kExitOk : kExitUsage);
    }
  }
  return a;
}

/// Parse "grid=fig3 seed=42 runs=5" from the journal's provenance note.
bool parse_note(const std::string& note, std::string& grid,
                std::uint64_t& seed, int& runs) {
  std::istringstream is(note);
  std::string tok;
  bool got_grid = false;
  while (is >> tok) {
    if (tok.rfind("grid=", 0) == 0) {
      grid = tok.substr(5);
      got_grid = true;
    } else if (tok.rfind("seed=", 0) == 0) {
      seed = std::strtoull(tok.c_str() + 5, nullptr, 10);
    } else if (tok.rfind("runs=", 0) == 0) {
      runs = std::atoi(tok.c_str() + 5);
    }
  }
  return got_grid;
}

/// Re-run one journaled job and check it reproduces.  Returns true on a
/// faithful reproduction (same hash for successes, same error class for
/// failures).
bool replay_job(const std::vector<SweepCell>& cells, const JournalEntry& e,
                const std::string& csv_prefix,
                const cgs::core::proc::ResourceLimits& limits) {
  const SweepCell& cell = cells[e.cell];
  Scenario sc = cell.scenario;
  sc.seed = e.seed;
  // Force the auditor on: replay is the forensic path, and the auditor is
  // observer-only, so the trace hash must still match the journaled run.
  sc.audit = Scenario::AuditMode::kOn;

  std::printf("replay cell %u '%s' seed %" PRIu64 " (journal: %s)\n", e.cell,
              cell.label.c_str(), e.seed, e.ok ? "ok" : "failed");

  if (!e.ok && cgs::core::is_process_failure(e.cls)) {
    // A journaled process death (crash/timeout/resource) would take the
    // replay tool down with it if re-run in-process, so re-run it in the
    // same forked sandbox the sweep used.  The packet log lives in the
    // child and dies with it, so this path verifies the error class only.
    std::printf("  process-class failure: replaying in a forked sandbox "
                "(timeout %.1f s, mem %.0f MB, cpu %u s)\n",
                limits.wall_seconds,
                double(limits.address_space_bytes) / (1024.0 * 1024.0),
                limits.cpu_seconds);
    const cgs::core::proc::ChildResult cr = cgs::core::proc::run_forked(
        [&sc] {
          cgs::core::Testbed bed(sc);
          return cgs::core::serialize_trace(bed.run());
        },
        limits);
    if (cr.ok) {
      std::printf(
          "  journaled failure did NOT reproduce (sandboxed run "
          "succeeded)\n");
      return false;
    }
    const bool reproduced = cr.cls == e.cls;
    std::printf("  failure reproduced [%s vs journal %s] — %s\n    %s\n",
                std::string(to_string(cr.cls)).c_str(),
                std::string(to_string(e.cls)).c_str(),
                reproduced ? "MATCH" : "CLASS MISMATCH", cr.message.c_str());
    return reproduced;
  }

  cgs::core::Testbed bed(sc);
  constexpr unsigned kAllEvents =
      (1u << unsigned(cgs::core::TraceEvent::kArrival)) |
      (1u << unsigned(cgs::core::TraceEvent::kDrop)) |
      (1u << unsigned(cgs::core::TraceEvent::kTransmit)) |
      (1u << unsigned(cgs::core::TraceEvent::kDeliver));
  cgs::core::TraceLog log(kAllEvents);
  // Every link of the topology: the single bottleneck for synthesized
  // scenarios, each hop for multi-bottleneck graphs.  Multi-hop flows are
  // recorded once per hop, which is the point of a forensic capture.
  for (std::size_t li = 0; li < bed.topology().link_count(); ++li) {
    log.attach(bed.topology().link_at(li));
  }

  bool reproduced = false;
  try {
    const cgs::core::RunTrace trace = bed.run();
    const std::uint64_t h = cgs::core::trace_hash(trace);
    if (e.ok) {
      reproduced = h == e.trace_hash;
      std::printf("  trace hash 0x%016" PRIx64 " vs journal 0x%016" PRIx64
                  " — %s\n",
                  h, e.trace_hash, reproduced ? "MATCH" : "MISMATCH");
    } else {
      std::printf("  journaled failure did NOT reproduce (run succeeded, "
                  "hash 0x%016" PRIx64 ")\n",
                  h);
    }
  } catch (const std::exception& ex) {
    const cgs::core::ErrorClass cls = cgs::core::classify(ex);
    if (e.ok) {
      std::printf("  journaled success now FAILS [%s]: %s\n",
                  std::string(to_string(cls)).c_str(), ex.what());
    } else {
      reproduced = cls == e.cls;
      std::printf("  failure reproduced [%s vs journal %s] — %s\n    %s\n",
                  std::string(to_string(cls)).c_str(),
                  std::string(to_string(e.cls)).c_str(),
                  reproduced ? "MATCH" : "CLASS MISMATCH", ex.what());
    }
  }

  // Per-flow forensic digest of the bottleneck capture.
  for (const auto& fs : log.summarize()) {
    std::printf("  flow %u: %" PRIu64 " delivered, %" PRIu64
                " dropped, %.2f Mb/s goodput, jitter %.3f ms\n",
                fs.flow, fs.packets_delivered, fs.packets_dropped,
                fs.goodput().megabits_per_sec(),
                cgs::to_seconds(fs.jitter) * 1e3);
  }
  if (!csv_prefix.empty()) {
    const std::string path = csv_prefix + "_cell" + std::to_string(e.cell) +
                             "_seed" + std::to_string(e.seed) + ".csv";
    try {
      log.write_csv(path);
    } catch (const std::runtime_error& ex) {
      std::fprintf(stderr, "%s\n", ex.what());
      std::exit(kExitUsage);
    }
    std::printf("  wrote %s (%zu events)\n", path.c_str(), log.size());
  }
  return reproduced;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  cgs::core::proc::ResourceLimits limits;
  limits.wall_seconds = args.job_timeout_s;
  limits.cpu_seconds = std::uint32_t(args.job_cpu_s);
  limits.address_space_bytes =
      std::uint64_t(args.job_mem_mb * 1024.0 * 1024.0);

  std::string grid_name = args.grid;
  std::uint64_t grid_seed = 42;
  int runs = 5;
  std::optional<cgs::core::JournalScan> scan;

  if (!args.journal.empty()) {
    try {
      scan = cgs::core::scan_journal(args.journal);
    } catch (const cgs::core::JournalError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return kExitUsage;
    }
    if (!scan) {
      std::fprintf(stderr, "no journal at '%s'\n", args.journal.c_str());
      return kExitUsage;
    }
    if (scan->torn_tail) {
      std::fprintf(stderr,
                   "note: journal has a torn trailing record (crash "
                   "mid-write); ignoring it\n");
    }
    runs = int(scan->meta.runs);
    std::string noted;
    const bool named = parse_note(scan->meta.note, noted, grid_seed, runs);
    if (!named && args.grid.empty()) {
      std::fprintf(stderr,
                   "journal note '%s' does not name its grid — pass "
                   "--grid (and --gridseed/--runs) with --journal\n",
                   scan->meta.note.c_str());
      return kExitUsage;
    }
    if (args.grid.empty()) grid_name = noted;
  } else if (args.grid.empty()) {
    usage(stderr);
    return kExitUsage;
  }
  if (args.grid_seed) grid_seed = *args.grid_seed;
  if (args.runs) runs = *args.runs;

  auto cells_opt = cgs::tools::grid_by_name(grid_name, grid_seed);
  if (!cells_opt) {
    std::fprintf(stderr, "unknown grid '%s' (%s)\n", grid_name.c_str(),
                 cgs::tools::grid_names().c_str());
    return kExitUsage;
  }
  const std::vector<SweepCell> cells = std::move(*cells_opt);

  if (scan && cgs::core::sweep_fingerprint(cells, runs) !=
                  scan->meta.fingerprint) {
    std::fprintf(stderr,
                 "journal '%s' was not written by grid '%s' seed %" PRIu64
                 " runs %d (fingerprint mismatch); refusing to replay\n",
                 args.journal.c_str(), grid_name.c_str(), grid_seed, runs);
    return kExitJournalMismatch;
  }

  if (!scan) {
    // Explicit-job mode: synthesize the one entry to replay.  Without a
    // journal there is nothing to verify against, so treat it as a failed
    // record of unknown class — the run executes with full verbosity and
    // the command exits 0 only if it fails (reproducing *some* failure).
    if (args.cell_index < 0 ||
        std::size_t(args.cell_index) >= cells.size() || !args.seed) {
      std::fprintf(stderr,
                   "explicit mode needs --cellindex=0..%zu and --seed=S\n",
                   cells.size() - 1);
      return kExitUsage;
    }
    JournalEntry e;
    e.cell = std::uint32_t(args.cell_index);
    e.seed = *args.seed;
    e.ok = false;
    e.cls = cgs::core::ErrorClass::kUnclassified;
    // Nothing journaled to verify against: this is a pure forensic run,
    // so the outcome (and the packet log) is the product, not a verdict.
    std::printf("explicit mode: no journal record to verify against\n");
    (void)replay_job(cells, e, args.csv_prefix, limits);
    return kExitOk;
  }

  // Filter the journal's entries down to the jobs to replay.
  const std::vector<JournalEntry>& entries = scan->entries;
  std::vector<JournalEntry> selected;
  for (const JournalEntry& e : entries) {
    if (e.cell >= cells.size()) continue;
    if (args.failed_only && e.ok) continue;
    if (args.seed && e.seed != *args.seed) continue;
    if (!args.cell_filter.empty() &&
        cells[e.cell].label.find(args.cell_filter) == std::string::npos) {
      continue;
    }
    if (!args.failed_only && !args.all && !args.seed &&
        args.cell_filter.empty() && e.ok) {
      continue;  // bare `replay --journal=X` defaults to failed jobs
    }
    selected.push_back(e);
  }
  if (selected.empty()) {
    std::printf("nothing to replay (%zu journal entries, none selected)\n",
                entries.size());
    return kExitOk;
  }

  std::printf("replaying %zu of %zu journaled jobs from grid '%s'\n",
              selected.size(), entries.size(), grid_name.c_str());
  int mismatches = 0;
  for (const JournalEntry& e : selected) {
    if (!replay_job(cells, e, args.csv_prefix, limits)) ++mismatches;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "%d of %zu replays did NOT reproduce\n", mismatches,
                 selected.size());
    return kExitVerifyFailed;
  }
  std::printf("all %zu replays reproduced\n", selected.size());
  return kExitOk;
}
