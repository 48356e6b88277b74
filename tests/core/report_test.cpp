#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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

TEST(Report, SeriesCsvRoundTrip) {
  SeriesStats game;
  game.mean = {10.0, 12.0};
  game.ci95 = {1.0, 0.5};
  game.sd = {1.0, 0.5};
  const std::string path = ::testing::TempDir() + "/series.csv";
  write_series_csv(path, std::chrono::milliseconds(500), game, nullptr);
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_EQ(header, "t_s,game_mean_mbps,game_ci_lo,game_ci_hi");
  EXPECT_EQ(row1, "0,10,9,11");
  EXPECT_EQ(row2, "0.5,12,11.5,12.5");
  std::remove(path.c_str());
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, CloseReportsAFailedWrite) {
  // Every write to /dev/full fails (ENOSPC): close() must say so, naming
  // the file, instead of leaving a short file behind in silence.
  CsvWriter full("/dev/full");
  full.header({"a", "b"});
  full.row({1.0, 2.0});
  try {
    full.close();
    FAIL() << "close() on /dev/full did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }

  const std::string path = ::testing::TempDir() + "/closed.csv";
  CsvWriter ok(path);
  ok.header({"a", "b"});
  ok.row(std::vector<std::string>{"x,y", "z"});
  EXPECT_NO_THROW(ok.close());
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str(), "a,b\n\"x,y\",z\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cgs::core
