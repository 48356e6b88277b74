#include "core/aggregate.hpp"

#include <algorithm>
#include <utility>

#include "util/stats.hpp"

namespace cgs::core {

SeriesStats series_stats(const OnlineSeries& s) {
  SeriesStats out;
  const std::size_t len = s.size();
  out.mean.resize(len);
  out.sd.resize(len);
  out.ci95.resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.mean[i] = s[i].mean();
    out.sd[i] = s[i].stddev();
    out.ci95[i] = ci95_halfwidth(s[i]);
  }
  return out;
}

ConditionAccumulator::ConditionAccumulator(Scenario scenario)
    : sc_(std::move(scenario)), w_(analysis_windows(sc_)) {}

void ConditionAccumulator::add(const RunTrace& t) {
  if (runs_ == 0) {
    ival_ = t.sample_interval;
    flow_rows_.reserve(t.flows.size());
    for (const FlowTrace& f : t.flows) {
      FlowRowAcc row;
      row.id = f.id;
      row.name = f.name;
      row.kind = f.kind;
      flow_rows_.push_back(std::move(row));
    }
    link_rows_.reserve(t.links.size());
    for (const LinkTrace& l : t.links) {
      LinkRowAcc row;
      row.name = l.name;
      link_rows_.push_back(std::move(row));
    }
  }
  ++runs_;

  const std::vector<double> tcp = t.tcp_mbps();
  tcp_.add(tcp);

  // Per-flow digests: the first trace defines the mix shape; shorter mixes
  // in later traces skip the missing rows (matching the batch guard).
  for (std::size_t fi = 0; fi < flow_rows_.size(); ++fi) {
    if (fi >= t.flows.size()) continue;
    flow_rows_[fi].series.add(t.flows[fi].mbps);
    flow_rows_[fi].fair_win.add(t.mean_bitrate_mbps(
        t.flows[fi].mbps, w_.fairness_from, w_.fairness_to));
  }
  // Per-link digests (same first-trace shaping as the flow rows).
  for (std::size_t li = 0; li < link_rows_.size(); ++li) {
    if (li >= t.links.size()) continue;
    const LinkTrace& l = t.links[li];
    link_rows_[li].util.add(l.util_mbps);
    link_rows_[li].fair_win.add(
        t.mean_bitrate_mbps(l.util_mbps, w_.fairness_from, w_.fairness_to));
    // Cumulative boundary counters: the sampler's last firing lands on the
    // penultimate boundary slot (collectors quirk), so the end-of-run count
    // is the series maximum, not .back().
    std::uint64_t total = 0;
    for (std::uint64_t d : l.drops) total = std::max(total, d);
    link_rows_[li].drops.add(double(total));
    std::uint64_t peak = 0;
    for (std::uint64_t d : l.depth_bytes) peak = std::max(peak, d);
    link_rows_[li].peak_depth.add(double(peak));
  }
  jain_.add(jain_index(t, w_));

  if (w_.competitor) {
    fair_.add(fairness_ratio(t.game_mbps(), tcp, ival_, sc_.capacity, w_));
  }
  tfair_.add(t.mean_bitrate_mbps(tcp, w_.fairness_from, w_.fairness_to));
  // RTT, fps and loss over the competition window (a solo cell's is its
  // scalar schedule, keeping Tables 3 and 4 comparable).
  fps_.add(t.fps_over(w_.compete_from, w_.compete_to));
  loss_.add(t.game_loss_in(w_.compete_from, w_.compete_to));
  for (const auto& r : t.rtt) {
    if (r.at >= w_.compete_from && r.at < w_.compete_to) {
      rtt_all_.add(to_seconds(r.rtt) * 1e3);
    }
  }
  steady_.add(t.mean_game_mbps(w_.original_from, w_.original_to));

  if (t.fleet.active) {
    fleet_active_ = true;
    fp50_.add(t.fleet.p50_mbps);
    fp95_.add(t.fleet.p95_mbps);
    fp99_.add(t.fleet.p99_mbps);
    fmean_.add(t.fleet.mean_mbps);
    fstall_.add(t.fleet.stall_rate);
    fjain_.add(t.fleet.jain);
    fpeak_.add(double(t.fleet.peak_sessions));
    farr_.add(double(t.fleet.arrivals));
    fdep_.add(double(t.fleet.departures));
  }
}

ConditionResult ConditionAccumulator::finalize() const {
  ConditionResult res;
  res.scenario = sc_;
  res.runs = runs_;
  if (runs_ == 0) return res;

  res.tcp = series_stats(tcp_);
  res.flow_rows.reserve(flow_rows_.size());
  for (const FlowRowAcc& acc : flow_rows_) {
    FlowSummaryRow row;
    row.id = acc.id;
    row.name = acc.name;
    row.kind = acc.kind;
    row.series = series_stats(acc.series);
    row.fair_mbps_mean = acc.fair_win.mean();
    row.fair_mbps_sd = acc.fair_win.stddev();
    res.flow_rows.push_back(std::move(row));
  }
  // The game digests are the primary game stream's row: zeros when the
  // mix has none.
  res.game.mean.assign(res.tcp.mean.size(), 0.0);
  res.game.sd = res.game.ci95 = res.game.mean;
  for (const FlowSummaryRow& row : res.flow_rows) {
    if (row.kind != FlowKind::kGameStream) continue;
    res.game = row.series;
    res.game_fair_mbps = row.fair_mbps_mean;
    break;
  }
  res.link_rows.reserve(link_rows_.size());
  for (const LinkRowAcc& acc : link_rows_) {
    LinkSummaryRow row;
    row.name = acc.name;
    row.util = series_stats(acc.util);
    row.util_fair_mean = acc.fair_win.mean();
    row.util_fair_sd = acc.fair_win.stddev();
    row.drops_mean = acc.drops.mean();
    row.drops_sd = acc.drops.stddev();
    row.peak_depth_mean = acc.peak_depth.mean();
    res.link_rows.push_back(std::move(row));
  }
  res.jain_mean = jain_.mean();
  res.jain_sd = jain_.stddev();
  res.fairness_mean = fair_.mean();
  res.fairness_sd = fair_.stddev();
  res.tcp_fair_mbps = tfair_.mean();
  res.fps_mean = fps_.mean();
  res.fps_sd = fps_.stddev();
  res.loss_mean = loss_.mean();
  res.rtt_mean_ms = rtt_all_.mean();
  res.rtt_sd_ms = rtt_all_.stddev();
  res.steady_mean_mbps = steady_.mean();
  res.steady_sd_mbps = steady_.stddev();

  res.rr = response_recovery(res.game.mean, ival_, w_);

  if (fleet_active_) {
    res.fleet.active = true;
    res.fleet.p50_mean = fp50_.mean();
    res.fleet.p95_mean = fp95_.mean();
    res.fleet.p99_mean = fp99_.mean();
    res.fleet.mean_mbps_mean = fmean_.mean();
    res.fleet.stall_mean = fstall_.mean();
    res.fleet.jain_mean = fjain_.mean();
    res.fleet.peak_sessions_mean = fpeak_.mean();
    res.fleet.arrivals_mean = farr_.mean();
    res.fleet.departures_mean = fdep_.mean();
  }
  return res;
}

ConditionResult summarize(const Scenario& sc,
                          const std::vector<RunTrace>& traces) {
  ConditionAccumulator acc(sc);
  for (const auto& t : traces) acc.add(t);
  return acc.finalize();
}

}  // namespace cgs::core
