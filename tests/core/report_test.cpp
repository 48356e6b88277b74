#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tracelog.hpp"
#include "util/csv.hpp"

namespace cgs::core {
namespace {

TEST(Report, FmtMeanSd) {
  EXPECT_EQ(fmt_mean_sd(27.512, 2.31), "27.5 (2.3)");
  EXPECT_EQ(fmt_mean_sd(50.8, 1.83, 2), "50.80 (1.83)");
}

TEST(Report, TextTableAlignsColumns) {
  TextTable t;
  t.set_header({"System", "Bitrate"});
  t.add_row({"Stadia", "27.5 (2.3)"});
  t.add_row({"GeForce", "24.5 (1.8)"});
  const std::string out = t.render();
  EXPECT_NE(out.find("System"), std::string::npos);
  EXPECT_NE(out.find("Stadia"), std::string::npos);
  // Each line has the same alignment: header starts at col 0, and the
  // second column of every row starts at the same offset.
  std::istringstream is(out);
  std::string l1, sep, l2, l3;
  std::getline(is, l1);
  std::getline(is, sep);
  std::getline(is, l2);
  std::getline(is, l3);
  EXPECT_EQ(l1.find("Bitrate"), l2.find("27.5 (2.3)"));
  EXPECT_EQ(l2.find("27.5"), l3.find("24.5"));
}

TEST(Report, HeatmapContainsValuesAndLabels) {
  const std::string out = render_heatmap_block(
      "Stadia vs cubic", {35.0, 25.0}, {0.5, 2.0},
      {{0.42, -0.33}, {0.10, -0.05}}, /*color=*/false);
  EXPECT_NE(out.find("Stadia vs cubic"), std::string::npos);
  EXPECT_NE(out.find("+0.42"), std::string::npos);
  EXPECT_NE(out.find("-0.33"), std::string::npos);
  EXPECT_NE(out.find("35 Mb/s"), std::string::npos);
  EXPECT_NE(out.find("0.5x BDP"), std::string::npos);
  // No ANSI escapes without color.
  EXPECT_EQ(out.find('\033'), std::string::npos);
}

TEST(Report, HeatmapColorEmitsAnsi) {
  const std::string out = render_heatmap_block(
      "x", {25.0}, {2.0}, {{0.42}}, /*color=*/true);
  EXPECT_NE(out.find('\033'), std::string::npos);
}

TEST(Report, SparklineScalesToMax) {
  const std::string s = sparkline({0.0, 5.0, 10.0}, 3);
  // 3 UTF-8 block glyphs (or spaces); max value maps to the full block.
  EXPECT_NE(s.find("█"), std::string::npos);
}

/// The whole file at `path`.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  return body.str();
}

TEST(Report, SeriesCsvRoundTrip) {
  SeriesStats game;
  game.mean = {10.0, 12.0};
  game.ci95 = {1.0, 0.5};
  game.sd = {1.0, 0.5};
  const std::string path = ::testing::TempDir() + "/series.csv";
  write_series_csv(path, std::chrono::milliseconds(500), {{"game", game}});
  EXPECT_EQ(slurp(path),
            "t_s,game_mbps,game_ci_lo,game_ci_hi\n"
            "0,10,9,11\n"
            "0.5,12,11.5,12.5\n");

  // A shorter series is zero-filled past its end.
  SeriesStats tcp;
  tcp.mean = {3.0};
  tcp.ci95 = {0.25};
  tcp.sd = {0.25};
  write_series_csv(path, std::chrono::milliseconds(500),
                   {{"game", game}, {"tcp", tcp}});
  EXPECT_EQ(slurp(path),
            "t_s,game_mbps,game_ci_lo,game_ci_hi,tcp_mbps,tcp_ci_lo,"
            "tcp_ci_hi\n"
            "0,10,9,11,3,2.75,3.25\n"
            "0.5,12,11.5,12.5,0,0,0\n");
  std::remove(path.c_str());
}

TEST(Report, SweepCsvHeadersArePinned) {
  // The sweep CSV format is what tools/sweep and every grid bench write;
  // a column added, dropped or moved must show up here.
  SweepResult sweep;
  sweep.cells.push_back({"cell", Scenario{}});
  sweep.results.emplace_back();
  sweep.results.back().link_rows.emplace_back();
  const std::string prefix = ::testing::TempDir() + "/pinned";
  const SweepCsvFiles files = write_sweep_csvs(prefix, sweep);
  EXPECT_EQ(files.cell_rows, 1u);
  EXPECT_EQ(files.link_rows, 1u);
  EXPECT_TRUE(files.fleet_path.empty());

  std::string header;
  std::ifstream cells(files.cells_path);
  std::getline(cells, header);
  EXPECT_EQ(header,
            "cell,runs,fairness_mean,fairness_sd,game_fair_mbps,"
            "tcp_fair_mbps,jain_mean,rtt_ms_mean,rtt_ms_sd,fps_mean,"
            "loss_mean,steady_mean_mbps,response_s,recovery_s,fps_sd,"
            "steady_sd_mbps");
  std::ifstream links(files.links_path);
  std::getline(links, header);
  EXPECT_EQ(header,
            "cell,link,util_fair_mbps_mean,util_fair_mbps_sd,drops_mean,"
            "drops_sd,peak_depth_bytes_mean");
  std::remove(files.cells_path.c_str());
  std::remove(files.links_path.c_str());
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, CloseReportsAFailedWrite) {
  // Every write to /dev/full fails (ENOSPC): each writer must say so,
  // naming the file, instead of leaving a short file behind in silence.
  const auto expect_named_failure = [](const char* what, auto&& write) {
    try {
      write();
      ADD_FAILURE() << what << " on /dev/full did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_named_failure("CsvWriter::close()", [] {
    CsvWriter full("/dev/full");
    full.header({"a", "b"});
    full.row(std::vector<double>{1.0, 2.0});
    full.close();
  });
  expect_named_failure("write_series_csv()", [] {
    SeriesStats s;
    s.mean = {1.0};
    s.ci95 = {0.1};
    write_series_csv("/dev/full", std::chrono::milliseconds(500),
                     {{"game", s}});
  });
  expect_named_failure("TraceLog::write_csv()", [] {
    TraceLog log;
    log.write_csv("/dev/full");
  });

  const std::string path = ::testing::TempDir() + "/closed.csv";
  CsvWriter ok(path);
  ok.header({"a", "b"});
  ok.row(std::vector<std::string>{"x,y", "z"});
  EXPECT_NO_THROW(ok.close());
  EXPECT_EQ(slurp(path), "a,b\n\"x,y\",z\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cgs::core
