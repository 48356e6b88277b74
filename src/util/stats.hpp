// Streaming statistics and confidence intervals for the measurement layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cgs {

/// Welford streaming mean/variance: numerically stable for large-mean
/// low-variance inputs where the textbook E[x^2] - mean^2 form loses the
/// variance to catastrophic cancellation.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / double(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 if fewer than 2 samples.
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / double(n_ - 1) : 0.0; }
  [[nodiscard]] double stddev() const;
  void reset() { n_ = 0; mean_ = 0.0; m2_ = 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Historical name; OnlineStats is the same accumulator.
using RunningStats = OnlineStats;

/// Element-wise Welford over a stream of series, one add() per run; the
/// cross-run mean and CI bands (core::series_stats) are read from it.
/// Ragged inputs truncate to the shortest series seen so far; each
/// surviving element receives every run's sample in add() order, so the
/// result depends only on the runs and the order they were added in.
class OnlineSeries {
 public:
  /// Fold one run's series into the per-element accumulators.
  void add(std::span<const double> series);

  /// Number of series folded so far.
  [[nodiscard]] std::size_t runs() const { return runs_; }
  /// Current (min-across-runs) element count; 0 before the first add.
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] const OnlineStats& operator[](std::size_t i) const {
    return stats_[i];
  }

 private:
  std::vector<OnlineStats> stats_;
  std::size_t len_ = 0;
  std::size_t runs_ = 0;
};

/// Fixed-bin streaming percentile digest: O(1) add, O(bins) quantile.
///
/// Samples are clamped into [lo, hi] and counted in equal-width bins;
/// percentile() linearly interpolates within the winning bin, so the
/// worst-case quantile error is one bin width.  This is the population
/// digest for fleet-scale metrics (thousands of per-session samples per
/// tick) where keeping every sample — or even a P² marker set per flow —
/// would defeat the O(cells) memory contract of streaming sweeps.
class PercentileDigest {
 public:
  PercentileDigest(double lo, double hi, std::size_t bins = 256);

  /// Fold one sample (clamped to [lo, hi]).
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? sum_ / double(n_) : 0.0; }
  /// p in [0,1]; 0 before the first sample.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
  double width_;  // bin width
  std::vector<std::uint64_t> bins_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// Two-sided Student-t critical value at 95% confidence for n-1 dof.
double t_critical_95(std::size_t n);

/// Half-width of the 95% confidence interval of the mean.
double ci95_halfwidth(const OnlineStats& s);

double mean_of(std::span<const double> xs);
double stddev_of(std::span<const double> xs);
/// p in [0,1]; linear interpolation between order statistics.
double percentile_of(std::vector<double> xs, double p);

}  // namespace cgs
