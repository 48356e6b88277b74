#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "sweep_test_util.hpp"
#include "tools/grids.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;

constexpr Time kIval = 500_ms;

/// The paper's 555 s schedule (TCP over [185, 370)).
const AnalysisWindows kPaper = analysis_windows(Scenario{});

/// Build a bitrate series: `high` before 185 s, `low` during [185, 370),
/// `high` after, with instant transitions at the given lags.
std::vector<double> schedule_series(double high, double low,
                                    double response_lag_s = 0.0,
                                    double recovery_lag_s = 0.0) {
  std::vector<double> s(1110);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double t = double(i) * 0.5;
    if (t < 185.0 + response_lag_s) {
      s[i] = t < 185.0 ? high : high;  // still high during the lag
    } else if (t < 370.0) {
      s[i] = low;
    } else if (t < 370.0 + recovery_lag_s) {
      s[i] = low;
    } else {
      s[i] = high;
    }
  }
  return s;
}

TEST(Fairness, EqualSharesGiveZero) {
  const auto g = schedule_series(12.5, 12.5);
  const auto t = schedule_series(12.5, 12.5);
  EXPECT_NEAR(fairness_ratio(g, t, kIval, 25_mbps, kPaper), 0.0, 1e-9);
}

TEST(Fairness, GameDominanceIsPositive) {
  const auto g = schedule_series(20.0, 20.0);
  const auto t = schedule_series(5.0, 5.0);
  EXPECT_NEAR(fairness_ratio(g, t, kIval, 25_mbps, kPaper), 0.6, 1e-9);
}

TEST(Fairness, ClampedToUnitRange) {
  const auto g = schedule_series(100.0, 100.0);
  const auto t = schedule_series(0.0, 0.0);
  EXPECT_DOUBLE_EQ(fairness_ratio(g, t, kIval, 25_mbps, kPaper), 1.0);
}

TEST(ResponseRecovery, InstantAdaptationIsFast) {
  const auto g = schedule_series(24.0, 12.0);
  const auto rr = response_recovery(g, kIval, kPaper);
  EXPECT_TRUE(rr.responded);
  EXPECT_TRUE(rr.recovered);
  EXPECT_LT(rr.response_s, 5.0);
  EXPECT_LT(rr.recovery_s, 6.0);
}

TEST(ResponseRecovery, LagsAreMeasured) {
  const auto g = schedule_series(24.0, 12.0, /*response_lag=*/20.0,
                                 /*recovery_lag=*/40.0);
  const auto rr = response_recovery(g, kIval, kPaper);
  EXPECT_TRUE(rr.responded);
  EXPECT_TRUE(rr.recovered);
  EXPECT_NEAR(rr.response_s, 20.0, 4.0);
  EXPECT_NEAR(rr.recovery_s, 40.0, 4.0);
}

TEST(ResponseRecovery, NeverRecoveringClampsToWindow) {
  // Drops at 185 s and stays low forever.
  std::vector<double> g(1110, 24.0);
  for (std::size_t i = 370; i < g.size(); ++i) g[i] = 12.0;
  const auto rr = response_recovery(g, kIval, kPaper);
  EXPECT_TRUE(rr.responded);
  EXPECT_FALSE(rr.recovered);
  EXPECT_DOUBLE_EQ(rr.recovery_s, 185.0);
}

TEST(ResponseRecovery, NeverRespondingClamps) {
  // Never adjusts down: settled band (310-370 s) equals the original level,
  // so response is trivially immediate — instead test a series that swings
  // away from the settled level during the early competing window.
  std::vector<double> g(1110, 24.0);
  for (std::size_t i = 620; i < 740; ++i) g[i] = 12.0;  // 310..370 s low
  // During 185-310 s the series stays at 24, far from the settled 12.
  const auto rr = response_recovery(g, kIval, kPaper);
  EXPECT_GT(rr.response_s, 50.0);
}

TEST(AnalysisWindows, PaperScheduleGivesThePapersWindows) {
  EXPECT_EQ(kPaper.compete_from, 185_sec);
  EXPECT_EQ(kPaper.compete_to, 370_sec);
  EXPECT_EQ(kPaper.original_from, 125_sec);
  EXPECT_EQ(kPaper.original_to, 185_sec);
  EXPECT_EQ(kPaper.settled_from, 310_sec);
  EXPECT_EQ(kPaper.settled_to, 370_sec);
  EXPECT_EQ(kPaper.fairness_from, 220_sec);
  EXPECT_EQ(kPaper.fairness_to, 370_sec);
  EXPECT_EQ(kPaper.recovery_limit, 185_sec);
  EXPECT_TRUE(kPaper.competitor);
}

TEST(AnalysisWindows, EveryScheduleGetsNonEmptyWindowsInsideTheRun) {
  Scenario paper_shape;  // tests/integration/paper_shape_test's schedule
  paper_shape.duration = 300_sec;
  paper_shape.tcp_start = 100_sec;
  paper_shape.tcp_stop = 220_sec;
  // Expected starts and recovery limit: DESIGN.md §3's table.  Spans
  // shorter than a window's length halve instead.
  struct Case {
    const char* name;
    Scenario sc;
    Time original_from, settled_from, fairness_from, recovery_limit;
  };
  const Case cases[] = {
      {"quick 2 s", quick_scenario(), 250_ms, 1_sec, 1_sec, 500_ms},
      {"smoke 30 s", tools::smoke_grid(42).at(0).scenario, 2500_ms,
       12500_ms, 12500_ms, 10_sec},
      {"paper-shape 300 s", paper_shape, 40_sec, 160_sec, 135_sec, 80_sec},
      {"parking lot 30 s", tools::parkinglot_grid(42).at(1).scenario,
       2500_ms, 12500_ms, 12500_ms, 10_sec},
  };
  for (const Case& c : cases) {
    const AnalysisWindows w = analysis_windows(c.sc);
    EXPECT_TRUE(w.competitor) << c.name;
    EXPECT_EQ(w.original_from, c.original_from) << c.name;
    EXPECT_EQ(w.settled_from, c.settled_from) << c.name;
    EXPECT_EQ(w.fairness_from, c.fairness_from) << c.name;
    EXPECT_EQ(w.recovery_limit, c.recovery_limit) << c.name;
    const std::pair<Time, Time> spans[] = {
        {w.compete_from, w.compete_to},
        {w.original_from, w.original_to},
        {w.settled_from, w.settled_to},
        {w.fairness_from, w.fairness_to},
        {w.compete_to, w.compete_to + w.recovery_limit},
    };
    for (const auto& [from, to] : spans) {
      EXPECT_GE(from, kTimeZero) << c.name;
      EXPECT_LT(from, to) << c.name;
      EXPECT_LE(to, c.sc.duration) << c.name;
    }
  }
}

TEST(AnalysisWindows, ExplicitMixesUseTheirBulkTcpSpan) {
  Scenario sc;
  sc.duration = 90_sec;
  sc.flows = {FlowSpec::game_stream(),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, 20_sec, 50_sec),
              FlowSpec::bulk_tcp(tcp::CcAlgo::kBbr, 10_sec, 40_sec),
              FlowSpec::ping()};
  AnalysisWindows w = analysis_windows(sc);
  EXPECT_TRUE(w.competitor);
  EXPECT_EQ(w.compete_from, 10_sec);  // earliest start
  EXPECT_EQ(w.compete_to, 50_sec);    // latest stop
  EXPECT_EQ(w.fairness_from, 45_sec);
  EXPECT_EQ(w.recovery_limit, 40_sec);

  // An open-ended flow competes until the end of the run.
  sc.flows[1].stop.reset();
  w = analysis_windows(sc);
  EXPECT_EQ(w.compete_to, 90_sec);
  EXPECT_EQ(w.recovery_limit, kTimeZero);

  // No bulk TCP: no competitor, whatever the scalar tcp_algo says, and the
  // scalar schedule clamped into the run.
  sc.flows = {FlowSpec::game_stream(), FlowSpec::ping()};
  w = analysis_windows(sc);
  EXPECT_FALSE(w.competitor);
  EXPECT_EQ(w.compete_from, 90_sec);
  EXPECT_EQ(w.compete_to, 90_sec);
}

TEST(Adaptiveness, CombinesNormalizedTimes) {
  ResponseRecovery rr{.response_s = 10.0, .recovery_s = 20.0,
                      .responded = true, .recovered = true};
  // A = 0.5(1 - 10/40) + 0.5(1 - 20/80) = 0.375 + 0.375
  EXPECT_NEAR(adaptiveness(rr, 40.0, 80.0), 0.75, 1e-12);
  // Worst case: equal to the maxima.
  ResponseRecovery worst{.response_s = 40.0, .recovery_s = 80.0,
                         .responded = true, .recovered = true};
  EXPECT_NEAR(adaptiveness(worst, 40.0, 80.0), 0.0, 1e-12);
}

TEST(JainIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_index({10.0, 10.0, 10.0}), 1.0);
  EXPECT_NEAR(jain_index({10.0, 0.0}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(jain_index(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 0.0);
}

}  // namespace
}  // namespace cgs::core
