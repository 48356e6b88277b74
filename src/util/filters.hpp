// Time-windowed extremum filters and smoothing primitives.
//
// WindowedMaxFilter/WindowedMinFilter keep the extremum of samples whose age
// is within a sliding time window — the structure BBR uses for its max-
// bandwidth (10 RTT) and min-RTT (10 s) estimators.  Implemented as a
// monotonic deque: O(1) amortised update, O(k) space in distinct extrema.
#pragma once

#include <deque>

#include "util/units.hpp"

namespace cgs {

namespace detail {

template <typename V, typename Better>
class WindowedExtremumFilter {
 public:
  explicit WindowedExtremumFilter(Time window) : window_(window) {}

  /// Insert a sample observed at `now`; evicts samples older than the window.
  void update(V value, Time now) {
    // Drop samples that the new one dominates (they can never be the
    // extremum again while `value` is in the window).
    while (!samples_.empty() && !Better{}(samples_.back().value, value)) {
      samples_.pop_back();
    }
    samples_.push_back({value, now});
    expire(now);
  }

  /// Remove samples older than the window as of `now`.
  void expire(Time now) {
    while (!samples_.empty() && now - samples_.front().at > window_) {
      samples_.pop_front();
    }
  }

  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Current extremum. Requires !empty().
  [[nodiscard]] V get() const { return samples_.front().value; }

  [[nodiscard]] V get_or(V fallback) const {
    return samples_.empty() ? fallback : samples_.front().value;
  }

  void reset() { samples_.clear(); }

 private:
  struct Sample {
    V value;
    Time at;
  };
  Time window_;
  std::deque<Sample> samples_;
};

template <typename V>
struct StrictlyGreater {
  bool operator()(const V& a, const V& b) const { return a > b; }
};
template <typename V>
struct StrictlyLess {
  bool operator()(const V& a, const V& b) const { return a < b; }
};

}  // namespace detail

template <typename V>
using WindowedMaxFilter = detail::WindowedExtremumFilter<V, detail::StrictlyGreater<V>>;

template <typename V>
using WindowedMinFilter = detail::WindowedExtremumFilter<V, detail::StrictlyLess<V>>;

/// Exponentially-weighted moving average with fixed gain.
class Ewma {
 public:
  explicit Ewma(double gain) : gain_(gain) {}

  void update(double sample) {
    if (!initialized_) {
      value_ = sample;
      initialized_ = true;
    } else {
      value_ += gain_ * (sample - value_);
    }
  }

  [[nodiscard]] bool initialized() const { return initialized_; }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double value_or(double fallback) const {
    return initialized_ ? value_ : fallback;
  }
  void reset() { initialized_ = false; value_ = 0.0; }

 private:
  double gain_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Sliding-window byte counter: rate of bytes observed over the last window.
/// Used by receivers to estimate delivered bitrate.
class RateMeter {
 public:
  explicit RateMeter(Time window) : window_(window) {}

  void add(ByteSize size, Time now) {
    entries_.push_back({size, now});
    total_ += size;
    expire(now);
  }

  void expire(Time now) {
    while (!entries_.empty() && now - entries_.front().at > window_) {
      total_ -= entries_.front().size;
      entries_.pop_front();
    }
  }

  /// Average rate over the window ending at `now`.
  [[nodiscard]] Bandwidth rate(Time now) {
    expire(now);
    return rate_of(total_, window_);
  }

  [[nodiscard]] ByteSize bytes_in_window() const { return total_; }
  void reset() { entries_.clear(); total_ = ByteSize(0); }

 private:
  struct Entry {
    ByteSize size;
    Time at;
  };
  Time window_;
  std::deque<Entry> entries_;
  ByteSize total_{0};
};

}  // namespace cgs
