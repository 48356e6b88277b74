// Cross-run aggregation: mean series with 95% confidence intervals (the
// shaded bands of Figure 2) and per-condition summary statistics.  Two
// entry points share one reduction: the streaming ConditionAccumulator
// (feed traces as they finish, O(1) traces held) and the batch summarize()
// convenience wrapper over it.
#pragma once

#include <vector>

#include "core/collectors.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "util/stats.hpp"

namespace cgs::core {

struct SeriesStats {
  std::vector<double> mean;
  std::vector<double> sd;
  std::vector<double> ci95;  // half-width
};

/// SeriesStats view (mean/sd/ci95 per element) of a streaming accumulator.
[[nodiscard]] SeriesStats series_stats(const OnlineSeries& s);

/// Cross-run digest of one flow of the mix.
struct FlowSummaryRow {
  net::FlowId id = 0;
  std::string name;
  FlowKind kind = FlowKind::kBulkTcp;

  SeriesStats series;  // goodput Mb/s per bucket, aggregated across runs

  // Mean goodput over the fairness window: mean/sd across runs.
  double fair_mbps_mean = 0.0;
  double fair_mbps_sd = 0.0;
};

/// Cross-run digest of one topology link.
struct LinkSummaryRow {
  std::string name;

  SeriesStats util;  // delivered Mb/s per bucket, aggregated across runs

  // Mean utilization over the fairness window: mean/sd across runs.
  double util_fair_mean = 0.0;
  double util_fair_sd = 0.0;

  // End-of-run cumulative drops: mean/sd across runs.
  double drops_mean = 0.0;
  double drops_sd = 0.0;

  // Peak sampled queue depth in bytes, averaged across runs.
  double peak_depth_mean = 0.0;
};

/// Cross-run digest of a cell's fluid fleet (hybrid-fidelity runs);
/// active stays false for fleet-free cells.
struct FleetSummary {
  bool active = false;

  // Population bitrate percentiles (per-run digests), averaged across runs.
  double p50_mean = 0.0;
  double p95_mean = 0.0;
  double p99_mean = 0.0;
  double mean_mbps_mean = 0.0;

  // Stall rate and population Jain, averaged across runs.
  double stall_mean = 0.0;
  double jain_mean = 0.0;

  // Churn digests, averaged across runs.
  double peak_sessions_mean = 0.0;
  double arrivals_mean = 0.0;
  double departures_mean = 0.0;
};

/// Everything the benches need about one grid cell.
struct ConditionResult {
  Scenario scenario;
  int runs = 0;

  SeriesStats game;  // bitrate Mb/s per 0.5 s bucket
  SeriesStats tcp;

  /// Per-flow digests, in mix order (the N-flow generalisation of
  /// game/tcp above).
  std::vector<FlowSummaryRow> flow_rows;

  /// Per-link digests, in topology link order.
  std::vector<LinkSummaryRow> link_rows;

  /// N-flow Jain index over the fairness window (ping excluded): mean/sd
  /// across runs.
  double jain_mean = 0.0;
  double jain_sd = 0.0;

  // Fairness ratio: mean/sd across runs (Fig 3 cell value).
  double fairness_mean = 0.0;
  double fairness_sd = 0.0;
  // Mean bitrates over the fairness window.
  double game_fair_mbps = 0.0;
  double tcp_fair_mbps = 0.0;

  // Response/recovery computed on the mean game series (Fig 4 inputs).
  ResponseRecovery rr;

  // Ping RTT over the competition window, aggregated across runs
  // (Tables 3/4: mean with sd of all samples).
  double rtt_mean_ms = 0.0;
  double rtt_sd_ms = 0.0;

  // Display frame rate over the competition window (Table 5).
  double fps_mean = 0.0;
  double fps_sd = 0.0;

  // Game packet loss fraction over the competition window (§4.3).
  double loss_mean = 0.0;

  // Steady-state game bitrate over the original window (Table 1 and solo
  // baselines).
  double steady_mean_mbps = 0.0;
  double steady_sd_mbps = 0.0;

  // Fleet population digest (hybrid-fidelity cells).
  FleetSummary fleet;
};

/// Streaming per-condition reducer: feed each RunTrace the moment its run
/// finishes and discard it — nothing but O(buckets) Welford state is
/// retained, so a whole grid sweep holds O(cells) memory instead of
/// O(cells x runs x samples).  Feeding traces in seed order makes
/// finalize() bit-identical to batch summarize() over the same traces (any
/// other order changes floating-point rounding only); the sweep engine
/// guarantees that order.
class ConditionAccumulator {
 public:
  explicit ConditionAccumulator(Scenario scenario);

  /// Fold one run's trace into the condition digest.
  void add(const RunTrace& t);

  /// Number of traces folded so far.
  [[nodiscard]] int runs() const { return runs_; }

  /// Digest of everything added so far.
  [[nodiscard]] ConditionResult finalize() const;

 private:
  struct FlowRowAcc {
    net::FlowId id = 0;
    std::string name;
    FlowKind kind = FlowKind::kBulkTcp;
    OnlineSeries series;
    OnlineStats fair_win;
  };
  struct LinkRowAcc {
    std::string name;
    OnlineSeries util;
    OnlineStats fair_win;
    OnlineStats drops;
    OnlineStats peak_depth;
  };

  Scenario sc_;
  AnalysisWindows w_;  // derived once from sc_'s schedule
  int runs_ = 0;
  Time ival_ = kTimeZero;  // sample interval, captured from the first trace

  OnlineSeries tcp_;
  std::vector<FlowRowAcc> flow_rows_;  // shaped by the first trace's mix
  std::vector<LinkRowAcc> link_rows_;  // shaped by the first trace's links
  OnlineStats jain_, fair_, fps_, loss_, steady_, tfair_;
  OnlineStats rtt_all_;  // pooled RTT samples across runs

  // Fleet digests, folded only from traces with an active fleet.
  bool fleet_active_ = false;
  OnlineStats fp50_, fp95_, fp99_, fmean_, fstall_, fjain_;
  OnlineStats fpeak_, farr_, fdep_;
};

/// Digest per-run traces into a ConditionResult (batch path: delegates to
/// a ConditionAccumulator fed in trace order).
[[nodiscard]] ConditionResult summarize(const Scenario& scenario,
                                        const std::vector<RunTrace>& traces);

}  // namespace cgs::core
