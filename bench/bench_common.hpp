// Shared helpers for the table/figure regeneration binaries: a tiny flag
// parser, and running and reading the named grids of tools/grids.hpp.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cgstream.hpp"
#include "grids.hpp"

namespace bench {

struct CommonArgs {
  int runs = 5;          // paper: 15 (--runs=15); default trimmed for time
  int threads = 0;       // 0 = hardware concurrency
  bool csv = false;      // also write CSV files next to the binary
  bool color = true;     // ANSI heatmap colouring
  std::uint64_t seed = 42;
  std::string csv_prefix;
};

inline CommonArgs parse_args(int argc, char** argv,
                             const char* default_prefix) {
  CommonArgs a;
  a.csv_prefix = default_prefix;
  a.color = ::isatty(1) != 0;  // plain text when piped to a file
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--runs=", 7) == 0) {
      a.runs = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      a.threads = std::atoi(arg + 10);
    } else if (std::strcmp(arg, "--csv") == 0) {
      a.csv = true;
    } else if (std::strcmp(arg, "--no-color") == 0) {
      a.color = false;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      a.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: %s [--runs=N] [--threads=N] [--csv] [--no-color] "
          "[--seed=S]\n",
          argv[0]);
      std::exit(0);
    }
  }
  return a;
}

/// Run a named grid (tools/grids.hpp) as one sweep at the CLI's runs and
/// threads.
inline cgs::core::SweepResult run_grid(std::vector<cgs::core::SweepCell> cells,
                                       const CommonArgs& args) {
  cgs::core::SweepOptions opts;
  opts.runs = args.runs;
  opts.threads = args.threads;
  return cgs::core::run_sweep(std::move(cells), opts);
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
