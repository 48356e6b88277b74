// Plain-text rendering of the paper's tables, heatmaps and series — what
// the bench binaries print — and the CSV files they and the sweep CLI write.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "core/sweep.hpp"

namespace cgs::core {

/// "27.5 (2.3)" — the paper's mean-with-sd cell format.
[[nodiscard]] std::string fmt_mean_sd(double mean, double sd, int prec = 1);

/// Fixed-width text table.
class TextTable {
 public:
  void set_header(std::vector<std::string> cols);
  void add_row(std::vector<std::string> cells);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Render one system's 3x3 fairness heatmap block (capacities as rows,
/// queue multipliers as columns), ANSI-coloured when `color`.
[[nodiscard]] std::string render_heatmap_block(
    const std::string& title, const std::vector<double>& capacities_mbps,
    const std::vector<double>& queue_mults,
    const std::vector<std::vector<double>>& values, bool color);

/// Per-flow summary table: one row per flow of the mix (id, kind, goodput
/// over the fairness window, share of capacity), followed by the N-flow
/// Jain index line.
[[nodiscard]] std::string render_flow_summary(const ConditionResult& res);

/// Per-link summary table: one row per topology link (utilization over the
/// fairness window, end-of-run drops, peak queue depth).
[[nodiscard]] std::string render_link_summary(const ConditionResult& res);

/// One column group of a series CSV: a per-bucket mean/CI series under
/// its name ("game", "tcp", a flow or a link row's name).
struct NamedSeries {
  std::string name;
  const SeriesStats& stats;
};

/// Write mean/CI time-series to CSV: t_s, then one
/// "<name>_mbps,<name>_ci_lo,<name>_ci_hi" column group per series, with
/// one row per bucket of the longest series and a shorter series
/// zero-filled past its end.  Throws std::runtime_error naming the file
/// when it cannot be opened or written in full.
void write_series_csv(const std::string& path, Time sample_interval,
                      const std::vector<NamedSeries>& series);

/// Compact console sparkline of a bitrate series (for quick inspection).
[[nodiscard]] std::string sparkline(const std::vector<double>& series,
                                    std::size_t width = 80);

/// What write_sweep_csvs produced: the paths it wrote and the row counts,
/// so callers can report them.  fleet_path stays empty when no cell of the
/// sweep ran a fluid fleet (the file is not written at all).
struct SweepCsvFiles {
  std::string cells_path;
  std::size_t cell_rows = 0;
  std::string links_path;
  std::size_t link_rows = 0;
  std::string fleet_path;
  std::size_t fleet_rows = 0;
};

/// Write the standard sweep output set: <prefix>_cells.csv (one row per
/// cell), <prefix>_links.csv (one row per cell x topology link) and — only
/// when some cell ran a fluid fleet — <prefix>_fleet.csv.  This is THE
/// definition of the sweep CSV format: the sweep CLI, every grid bench
/// binary's --csv and perfbench call it, and a resumed sweep produces
/// byte-identical files to an uninterrupted run.  Throws
/// std::runtime_error naming the file when one cannot be opened or written
/// in full.
SweepCsvFiles write_sweep_csvs(const std::string& prefix,
                               const SweepResult& sweep);

}  // namespace cgs::core
