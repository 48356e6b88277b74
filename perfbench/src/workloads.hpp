// The benchmark's three workloads and the untraced / traced runs over them.
//
//   paper_cells   the six 25 Mb/s 2xBDP cells of Fig 2 ({Stadia, GeForce,
//                 Luna} x {cubic, bbr}), one after another on one thread
//                 through Testbed.
//   fig3_grid     the 54-cell Fig 3 grid through run_sweep on nproc workers
//                 with the fsync'd journal on, then write_sweep_csvs.
//   multihop_tcp  one 3-hop parking lot on one thread: 2 BBR + 2 Cubic flows
//                 end to end, one Cubic cross flow per hop, a ping flow, a
//                 churning fluid fleet on every hop and no game stream.
//
// A "pass" runs every cell of the workload once; a run repeats passes until
// its time is up.  Every job's trace_hash is checked against the reference
// recorded for its (cell, scenario seed).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sweep.hpp"

namespace perfbench {

/// Workload names, in the order the benchmark lists them.
inline const std::vector<std::string> kWorkloads = {"paper_cells", "fig3_grid",
                                                    "multihop_tcp"};

/// Benchmark seeds map onto this many scenario seeds (1..kSeedSpan), each of
/// which has recorded references.
inline constexpr std::uint64_t kSeedSpan = 16;

[[nodiscard]] inline std::uint64_t scenario_seed(std::uint64_t seed) {
  return 1 + seed % kSeedSpan;
}

/// The workload's cells, every scenario seeded with `scenario_seed`.
/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] std::vector<cgs::core::SweepCell> workload_cells(
    const std::string& workload, std::uint64_t scenario_seed);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string refs_path;    // reference hashes of this workload
  std::string scratch_dir;  // journals, CSVs and the span dump
  int threads = 1;          // sweep and reference-recording workers
};

/// Exact per-layer counts read from public accessors after a run, summed
/// over cells.
struct Counts {
  std::uint64_t events = 0, link_pkts = 0, drops = 0, session_ticks = 0;
  std::uint64_t acks = 0, retransmits = 0, rtos = 0;
  std::uint64_t pkts_recv = 0, pkts_lost = 0, frames_presented = 0;
  std::uint64_t controller_calls = 0;

  Counts& operator+=(const Counts& o);
  bool operator==(const Counts&) const = default;
};

/// One cell of the traced run's per-cell breakdown.
struct CellRow {
  std::string label;
  double run_s = 0.0;
  double run_self_s = 0.0;
  Counts counts;
};

/// What one invocation measured.
struct Result {
  Tally tally;
  /// Invariant violations besides failed jobs (traced hashes differing from
  /// untraced ones, exact counts differing between passes).
  std::vector<std::string> problems;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
  /// The end-to-end metrics of the run's untraced passes.
  std::map<std::string, double> end_to_end;
  /// The timed end-to-end metrics as measured, before the host-speed scale.
  std::map<std::string, double> measured;
  /// Median host_kernel_s over the run, and the factor the timed end-to-end
  /// metrics were scaled by.
  double host_kernel_s = 0.0;
  double scale = 1.0;
  /// Traced runs: the per-cell breakdown of the last traced pass.
  std::vector<CellRow> cells;
  int passes = 0;
  std::size_t cells_per_pass = 0;
};

/// Run the workload for o.seconds (at least one pass), untraced or traced.
[[nodiscard]] Result run_workload(const Options& o);

/// Run every cell once per scenario seed 1..kSeedSpan through Testbed and
/// write their hashes to o.refs_path.
void record_references(const Options& o);

/// Count `hash` toward `tally`: a job passes only when the reference for
/// (label, seed) exists and matches.
void check_hash(const RefTable& refs, const std::string& label,
                std::uint64_t seed, std::uint64_t hash, Tally& tally);

}  // namespace perfbench
