#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/csv.hpp"

namespace cgs::core {

std::string fmt_mean_sd(double mean, double sd, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << mean << " (" << sd << ")";
  return os.str();
}

void TextTable::set_header(std::vector<std::string> cols) {
  header_ = std::move(cols);
}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto grow = [&](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  grow(header_);
  for (const auto& r : rows_) grow(r);

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      os << std::left << std::setw(int(widths[i]) + 2) << cell;
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
  return os.str();
}

namespace {
/// Map value in [-1, 1] to an ANSI 256-colour background: blue (cool,
/// negative: TCP wins) through white to red (warm, positive: game wins).
std::string cell_color(double v) {
  const double c = std::clamp(v, -1.0, 1.0);
  int code;
  if (c < -0.30) code = 27;        // strong blue
  else if (c < -0.15) code = 75;   // blue
  else if (c < -0.05) code = 153;  // light blue
  else if (c <= 0.05) code = 255;  // near-white
  else if (c <= 0.15) code = 223;  // light orange
  else if (c <= 0.30) code = 209;  // orange
  else code = 196;                 // red
  return "\033[48;5;" + std::to_string(code) + ";30m";
}
}  // namespace

std::string render_heatmap_block(
    const std::string& title, const std::vector<double>& capacities_mbps,
    const std::vector<double>& queue_mults,
    const std::vector<std::vector<double>>& values, bool color) {
  std::ostringstream os;
  os << title << '\n';
  os << std::setw(10) << "";
  for (double q : queue_mults) {
    std::ostringstream h;
    h << q << "x BDP";
    os << std::setw(10) << h.str();
  }
  os << '\n';
  for (std::size_t r = 0; r < capacities_mbps.size(); ++r) {
    std::ostringstream lbl;
    lbl << capacities_mbps[r] << " Mb/s";
    os << std::setw(10) << lbl.str();
    for (std::size_t c = 0; c < queue_mults.size(); ++c) {
      std::ostringstream cell;
      cell << std::showpos << std::fixed << std::setprecision(2)
           << values[r][c];
      if (color) {
        os << cell_color(values[r][c]) << std::setw(10) << cell.str()
           << "\033[0m";
      } else {
        os << std::setw(10) << cell.str();
      }
    }
    os << '\n';
  }
  return os.str();
}

std::string render_flow_summary(const ConditionResult& res) {
  TextTable table;
  table.set_header({"flow", "id", "kind", "fair-win Mb/s", "share"});
  const double cap = res.scenario.capacity.megabits_per_sec();
  for (const FlowSummaryRow& row : res.flow_rows) {
    std::ostringstream share;
    share << std::fixed << std::setprecision(2)
          << (cap > 0.0 ? row.fair_mbps_mean / cap : 0.0);
    table.add_row({row.name, std::to_string(row.id),
                   std::string(to_string(row.kind)),
                   fmt_mean_sd(row.fair_mbps_mean, row.fair_mbps_sd),
                   share.str()});
  }
  std::ostringstream os;
  os << table.render();
  os << "Jain index (game+tcp flows): "
     << fmt_mean_sd(res.jain_mean, res.jain_sd, 3) << '\n';
  return os.str();
}

std::string render_link_summary(const ConditionResult& res) {
  TextTable table;
  table.set_header({"link", "fair-win Mb/s", "drops", "peak depth B"});
  for (const LinkSummaryRow& row : res.link_rows) {
    std::ostringstream depth;
    depth << std::fixed << std::setprecision(0) << row.peak_depth_mean;
    table.add_row({row.name,
                   fmt_mean_sd(row.util_fair_mean, row.util_fair_sd),
                   fmt_mean_sd(row.drops_mean, row.drops_sd, 0),
                   depth.str()});
  }
  return table.render();
}

void write_series_csv(const std::string& path, Time sample_interval,
                      const std::vector<NamedSeries>& series) {
  CsvWriter csv(path);
  std::vector<std::string> header{"t_s"};
  std::size_t len = 0;
  for (const NamedSeries& s : series) {
    header.push_back(s.name + "_mbps");
    header.push_back(s.name + "_ci_lo");
    header.push_back(s.name + "_ci_hi");
    len = std::max(len, s.stats.mean.size());
  }
  csv.header(header);
  const double dt = to_seconds(sample_interval);
  std::vector<double> cells;
  for (std::size_t i = 0; i < len; ++i) {
    cells.assign(1, double(i) * dt);
    for (const NamedSeries& s : series) {
      const bool in = i < s.stats.mean.size();
      const double mean = in ? s.stats.mean[i] : 0.0;
      const double ci = in ? s.stats.ci95[i] : 0.0;
      cells.insert(cells.end(), {mean, mean - ci, mean + ci});
    }
    csv.row(cells);
  }
  csv.close();
}

std::string sparkline(const std::vector<double>& series, std::size_t width) {
  static const char* kLevels[] = {" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (series.empty()) return "";
  const double hi = *std::max_element(series.begin(), series.end());
  if (hi <= 0.0) return std::string(width, ' ');

  std::string out;
  const std::size_t n = std::min(width, series.size());
  for (std::size_t i = 0; i < n; ++i) {
    // Downsample by averaging each chunk.
    const std::size_t lo = i * series.size() / n;
    const std::size_t up = std::max(lo + 1, (i + 1) * series.size() / n);
    double sum = 0.0;
    for (std::size_t k = lo; k < up; ++k) sum += series[k];
    const double v = sum / double(up - lo);
    const int lvl = std::clamp(int(std::lround(v / hi * 8.0)), 0, 8);
    out += kLevels[lvl];
  }
  return out;
}

SweepCsvFiles write_sweep_csvs(const std::string& prefix,
                               const SweepResult& sweep) {
  SweepCsvFiles files;

  files.cells_path = prefix + "_cells.csv";
  {
    CsvWriter csv(files.cells_path);
    csv.header({"cell", "runs", "fairness_mean", "fairness_sd",
                "game_fair_mbps", "tcp_fair_mbps", "jain_mean", "rtt_ms_mean",
                "rtt_ms_sd", "fps_mean", "loss_mean", "steady_mean_mbps",
                "response_s", "recovery_s", "fps_sd", "steady_sd_mbps"});
    for (std::size_t i = 0; i < sweep.results.size(); ++i) {
      const auto& r = sweep.results[i];
      csv.row({sweep.cells[i].label, std::to_string(r.runs),
               std::to_string(r.fairness_mean), std::to_string(r.fairness_sd),
               std::to_string(r.game_fair_mbps),
               std::to_string(r.tcp_fair_mbps), std::to_string(r.jain_mean),
               std::to_string(r.rtt_mean_ms), std::to_string(r.rtt_sd_ms),
               std::to_string(r.fps_mean), std::to_string(r.loss_mean),
               std::to_string(r.steady_mean_mbps),
               std::to_string(r.rr.response_s),
               std::to_string(r.rr.recovery_s), std::to_string(r.fps_sd),
               std::to_string(r.steady_sd_mbps)});
      ++files.cell_rows;
    }
    csv.close();
  }

  // Per-link digest: one row per (cell, topology link).  Single-bottleneck
  // grids get one "bottleneck" row per cell; parking lots one per hop.
  files.links_path = prefix + "_links.csv";
  {
    CsvWriter lcsv(files.links_path);
    lcsv.header({"cell", "link", "util_fair_mbps_mean", "util_fair_mbps_sd",
                 "drops_mean", "drops_sd", "peak_depth_bytes_mean"});
    for (std::size_t i = 0; i < sweep.results.size(); ++i) {
      for (const auto& l : sweep.results[i].link_rows) {
        lcsv.row({sweep.cells[i].label, l.name,
                  std::to_string(l.util_fair_mean),
                  std::to_string(l.util_fair_sd), std::to_string(l.drops_mean),
                  std::to_string(l.drops_sd),
                  std::to_string(l.peak_depth_mean)});
        ++files.link_rows;
      }
    }
    lcsv.close();
  }

  // Fleet population digest: one row per cell that ran a fluid fleet
  // (omitted entirely for fleet-free grids).
  std::size_t fleet_cells = 0;
  for (const auto& r : sweep.results) {
    if (r.fleet.active) ++fleet_cells;
  }
  if (fleet_cells > 0) {
    files.fleet_path = prefix + "_fleet.csv";
    CsvWriter fcsv(files.fleet_path);
    fcsv.header({"cell", "runs", "peak_sessions_mean", "p50_mbps_mean",
                 "p95_mbps_mean", "p99_mbps_mean", "mean_mbps_mean",
                 "stall_rate_mean", "jain_mean", "arrivals_mean",
                 "departures_mean"});
    for (std::size_t i = 0; i < sweep.results.size(); ++i) {
      const auto& f = sweep.results[i].fleet;
      if (!f.active) continue;
      fcsv.row({sweep.cells[i].label, std::to_string(sweep.results[i].runs),
                std::to_string(f.peak_sessions_mean),
                std::to_string(f.p50_mean), std::to_string(f.p95_mean),
                std::to_string(f.p99_mean), std::to_string(f.mean_mbps_mean),
                std::to_string(f.stall_mean), std::to_string(f.jain_mean),
                std::to_string(f.arrivals_mean),
                std::to_string(f.departures_mean)});
      ++files.fleet_rows;
    }
    fcsv.close();
  }
  return files;
}

}  // namespace cgs::core
