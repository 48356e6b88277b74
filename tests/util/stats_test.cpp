#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cgs {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, Reset) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, LargeMeanTinySpreadKeepsVariance) {
  // The naive E[x^2] - mean^2 formulation loses ALL the variance here to
  // catastrophic cancellation (1e9^2 swamps a 1e-3 spread in a double's 53
  // bits); Welford must not.  16 samples alternating mean +/- 1e-3 have
  // sample sd = 1e-3 * sqrt(16/15).
  OnlineStats s;
  const double mean = 1e9;
  const double delta = 1e-3;
  for (int i = 0; i < 16; ++i) s.add(i % 2 == 0 ? mean + delta : mean - delta);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  // Analytic sd to within input quantization: at 1e9 a double's ulp is
  // ~1.2e-7, so the +/-1e-3 offsets carry ~1e-4 relative error before any
  // statistics happen.  Naive E[x^2]-mean^2 would be off by orders of
  // magnitude (or go negative); 1e-3 relative proves no cancellation.
  const double want_sd = delta * std::sqrt(16.0 / 15.0);
  EXPECT_NEAR(s.stddev() / want_sd, 1.0, 1e-3);
  // And agrees tightly with the two-pass batch computation on the SAME
  // quantized inputs — this is the algorithmic comparison.
  std::vector<double> xs;
  for (int i = 0; i < 16; ++i) {
    xs.push_back(i % 2 == 0 ? mean + delta : mean - delta);
  }
  EXPECT_NEAR(s.stddev() / stddev_of(xs), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), mean_of(xs));
}

TEST(OnlineSeries, ElementwiseWelford) {
  OnlineSeries s;
  EXPECT_EQ(s.runs(), 0u);
  EXPECT_EQ(s.size(), 0u);
  const std::vector<double> a = {1.0, 10.0, 100.0};
  const std::vector<double> b = {3.0, 30.0, 300.0};
  s.add(a);
  s.add(b);
  EXPECT_EQ(s.runs(), 2u);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0].mean(), 2.0);
  EXPECT_DOUBLE_EQ(s[1].mean(), 20.0);
  EXPECT_DOUBLE_EQ(s[2].mean(), 200.0);
  EXPECT_NEAR(s[2].stddev(), std::sqrt(20000.0), 1e-9);
}

TEST(OnlineSeries, TruncatesToShortestRun) {
  // Ragged runs clip to the common prefix.
  OnlineSeries s;
  s.add(std::vector<double>{1.0, 2.0, 3.0});
  s.add(std::vector<double>{5.0, 6.0});
  EXPECT_EQ(s.runs(), 2u);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].mean(), 3.0);
  EXPECT_DOUBLE_EQ(s[1].mean(), 4.0);
}

TEST(TCritical, KnownValues) {
  EXPECT_DOUBLE_EQ(t_critical_95(2), 12.706);   // 1 dof
  EXPECT_DOUBLE_EQ(t_critical_95(15), 2.145);   // 14 dof — the paper's n
  EXPECT_DOUBLE_EQ(t_critical_95(31), 2.042);   // 30 dof
  EXPECT_DOUBLE_EQ(t_critical_95(1000), 1.960);
  EXPECT_DOUBLE_EQ(t_critical_95(1), 0.0);
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);
}

TEST(Ci95, HalfWidth) {
  RunningStats s;
  // 15 samples, sd = 1 -> hw = 2.145 / sqrt(15).
  for (int i = 0; i < 15; ++i) s.add(i % 2 == 0 ? 1.0 : -1.0);
  const double hw = ci95_halfwidth(s);
  EXPECT_NEAR(hw, 2.145 * s.stddev() / std::sqrt(15.0), 1e-12);
  RunningStats one;
  one.add(5.0);
  EXPECT_DOUBLE_EQ(ci95_halfwidth(one), 0.0);
}

TEST(SpanStats, MeanStd) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean_of(xs), 3.0);
  EXPECT_NEAR(stddev_of(xs), std::sqrt(2.5), 1e-12);
}

TEST(Percentile, InterpolatesAndClamps) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile_of({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_of({7.0}, 0.9), 7.0);
}

TEST(PercentileDigest, EmptyAndMean) {
  PercentileDigest d(0.0, 100.0, 100);
  EXPECT_EQ(d.count(), 0u);
  EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  d.add(10.0);
  d.add(30.0);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_DOUBLE_EQ(d.mean(), 20.0);
}

TEST(PercentileDigest, QuantilesWithinOneBinWidth) {
  // Uniform samples 0..999 into 1000 equal-width bins: the digest's
  // worst-case error contract is one bin width (here 1.0).
  PercentileDigest d(0.0, 1000.0, 1000);
  for (int i = 0; i < 1000; ++i) d.add(double(i));
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(double(i));
  for (double p : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    EXPECT_NEAR(d.percentile(p), percentile_of(xs, p), 1.0) << "p=" << p;
  }
}

TEST(PercentileDigest, ClampsOutOfRangeSamples) {
  PercentileDigest d(0.0, 10.0, 10);
  d.add(-5.0);   // clamps to lo
  d.add(100.0);  // clamps to hi
  EXPECT_EQ(d.count(), 2u);
  EXPECT_GE(d.percentile(0.0), 0.0);
  EXPECT_LE(d.percentile(1.0), 10.0);
}

TEST(PercentileDigest, SinglePointMass) {
  PercentileDigest d(0.0, 50.0, 500);
  for (int i = 0; i < 1000; ++i) d.add(25.0);
  // Every quantile of a point mass lands inside the one occupied bin.
  EXPECT_NEAR(d.percentile(0.01), 25.0, 50.0 / 500);
  EXPECT_NEAR(d.percentile(0.5), 25.0, 50.0 / 500);
  EXPECT_NEAR(d.percentile(0.99), 25.0, 50.0 / 500);
}

}  // namespace
}  // namespace cgs
