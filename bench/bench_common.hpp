// Shared helpers for the table/figure regeneration binaries: a tiny flag
// parser, and running and reading the named grids of tools/grids.hpp.
// Every bench except ext_video_competition renders one named grid, and its
// --csv writes that sweep's CSV set, the files `tools/sweep --grid=<name>`
// writes.
#pragma once

#include <unistd.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cgstream.hpp"
#include "exit_codes.hpp"
#include "grids.hpp"

namespace bench {

struct CommonArgs {
  int runs = 5;          // paper: 15 (--runs=15); default trimmed for time
  int threads = 0;       // 0 = hardware concurrency
  bool csv = false;      // also write the sweep's CSVs (csv_prefix_*.csv)
  bool color = true;     // ANSI heatmap colouring
  std::uint64_t seed = 42;
  std::string csv_prefix;
};

/// `default_prefix` names the CSV files --csv writes for the binary's
/// grid.  A binary that runs no grid passes nullptr, and --runs,
/// --threads and --csv are then usage errors.
inline CommonArgs parse_args(int argc, char** argv,
                             const char* default_prefix) {
  CommonArgs a;
  const bool grid = default_prefix != nullptr;
  if (grid) a.csv_prefix = default_prefix;
  a.color = ::isatty(1) != 0;  // plain text when piped to a file
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (grid && std::strncmp(arg, "--runs=", 7) == 0) {
      a.runs = int(cgs::tools::whole_arg("--runs", arg + 7, 1, INT_MAX));
    } else if (grid && std::strncmp(arg, "--threads=", 10) == 0) {
      a.threads = int(cgs::tools::whole_arg("--threads", arg + 10, 0, INT_MAX));
    } else if (grid && std::strcmp(arg, "--csv") == 0) {
      a.csv = true;
    } else if (std::strcmp(arg, "--no-color") == 0) {
      a.color = false;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      a.seed = cgs::tools::whole_arg("--seed", arg + 7, 0, UINT64_MAX);
    } else {
      // --help asks for the usage; any other flag is a usage error, not a
      // run at defaults the caller did not ask for.
      const bool help = std::strcmp(arg, "--help") == 0;
      std::fprintf(help ? stdout : stderr,
                   "usage: %s%s [--no-color] [--seed=S]\n", argv[0],
                   grid ? " [--runs=N] [--threads=N] [--csv]" : "");
      std::exit(help ? cgs::tools::kExitOk : cgs::tools::kExitUsage);
    }
  }
  return a;
}

/// Run the named grid (tools/grids.hpp) at the CLI's seed as one sweep, at
/// its runs and threads.  With --csv, write the sweep's CSV set through
/// core::write_sweep_csvs and name each file on stderr; a file that cannot
/// be written in full exits 2 naming it, as tools/sweep does.
inline cgs::core::SweepResult run_grid(const std::string& name,
                                       const CommonArgs& args) {
  cgs::core::SweepOptions opts;
  opts.runs = args.runs;
  opts.threads = args.threads;
  cgs::core::SweepResult sweep = cgs::core::run_sweep(
      cgs::tools::grid_by_name(name, args.seed).value(), opts);
  if (args.csv) {
    try {
      const auto files = cgs::core::write_sweep_csvs(args.csv_prefix, sweep);
      std::fprintf(stderr, "wrote %s (%zu cells)\nwrote %s (%zu link rows)\n",
                   files.cells_path.c_str(), files.cell_rows,
                   files.links_path.c_str(), files.link_rows);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(cgs::tools::kExitUsage);
    }
  }
  return sweep;
}

/// The result of the cell labelled cgs::tools::cell_label(sys, cap, q, cc),
/// so a renderer can walk the grid in its own table order.
inline const cgs::core::ConditionResult& result_for(
    const cgs::core::SweepResult& sweep, cgs::stream::GameSystem sys,
    double cap_mbps, double queue_mult, std::optional<cgs::tcp::CcAlgo> cc) {
  const std::string label =
      cgs::tools::cell_label(sys, cap_mbps, queue_mult, cc);
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    if (sweep.cells[i].label == label) return sweep.results[i];
  }
  throw std::out_of_range("no grid cell '" + label + "'");
}

}  // namespace bench
