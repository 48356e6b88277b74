// Shared helpers for the sweep-engine test suites (Sweep. / Resume.):
// a fast full-mix scenario, the serial Testbed loop that is the engine's
// reference, and the field-for-field ConditionResult comparison both
// suites use to assert bit-identical aggregation.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/aggregate.hpp"
#include "core/scenario.hpp"
#include "core/testbed.hpp"

namespace cgs::core {

/// Small, fast cell: full 3-flow paper mix squeezed into 2 simulated
/// seconds so fairness/RTT/fps windows all contain samples.
inline Scenario quick_scenario(std::uint64_t seed = 100) {
  Scenario sc;
  sc.duration = std::chrono::seconds(2);
  sc.tcp_start = std::chrono::milliseconds(500);
  sc.tcp_stop = std::chrono::milliseconds(1500);
  sc.seed = seed;
  return sc;
}

/// Runs 0..runs-1 of `sc` one after another outside the sweep engine, at
/// seeds sc.seed + i — the traces every engine path must reproduce.
inline std::vector<RunTrace> serial_traces(const Scenario& sc, int runs) {
  std::vector<RunTrace> out;
  for (int i = 0; i < runs; ++i) {
    Scenario run = sc;
    run.seed = sc.seed + std::uint64_t(i);
    out.push_back(Testbed(run).run());
  }
  return out;
}

/// Field-for-field ConditionResult comparison: exact for counters/ids,
/// bitwise-tight for floating stats (the streaming path performs the same
/// arithmetic in the same order as the batch path).
inline void expect_results_equal(const ConditionResult& a,
                                 const ConditionResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  ASSERT_EQ(a.game.mean.size(), b.game.mean.size());
  for (std::size_t i = 0; i < a.game.mean.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.game.mean[i], b.game.mean[i]) << "game.mean[" << i << "]";
    EXPECT_DOUBLE_EQ(a.game.sd[i], b.game.sd[i]) << "game.sd[" << i << "]";
    EXPECT_DOUBLE_EQ(a.game.ci95[i], b.game.ci95[i]) << "game.ci95[" << i << "]";
  }
  ASSERT_EQ(a.tcp.mean.size(), b.tcp.mean.size());
  for (std::size_t i = 0; i < a.tcp.mean.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tcp.mean[i], b.tcp.mean[i]) << "tcp.mean[" << i << "]";
  }
  ASSERT_EQ(a.flow_rows.size(), b.flow_rows.size());
  for (std::size_t f = 0; f < a.flow_rows.size(); ++f) {
    EXPECT_EQ(a.flow_rows[f].id, b.flow_rows[f].id);
    EXPECT_EQ(a.flow_rows[f].name, b.flow_rows[f].name);
    EXPECT_EQ(a.flow_rows[f].kind, b.flow_rows[f].kind);
    EXPECT_DOUBLE_EQ(a.flow_rows[f].fair_mbps_mean, b.flow_rows[f].fair_mbps_mean);
    EXPECT_DOUBLE_EQ(a.flow_rows[f].fair_mbps_sd, b.flow_rows[f].fair_mbps_sd);
    ASSERT_EQ(a.flow_rows[f].series.mean.size(), b.flow_rows[f].series.mean.size());
    for (std::size_t i = 0; i < a.flow_rows[f].series.mean.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.flow_rows[f].series.mean[i],
                       b.flow_rows[f].series.mean[i]);
      EXPECT_DOUBLE_EQ(a.flow_rows[f].series.sd[i], b.flow_rows[f].series.sd[i]);
    }
  }
  EXPECT_DOUBLE_EQ(a.jain_mean, b.jain_mean);
  EXPECT_DOUBLE_EQ(a.jain_sd, b.jain_sd);
  EXPECT_DOUBLE_EQ(a.fairness_mean, b.fairness_mean);
  EXPECT_DOUBLE_EQ(a.fairness_sd, b.fairness_sd);
  EXPECT_DOUBLE_EQ(a.game_fair_mbps, b.game_fair_mbps);
  EXPECT_DOUBLE_EQ(a.tcp_fair_mbps, b.tcp_fair_mbps);
  EXPECT_DOUBLE_EQ(a.rtt_mean_ms, b.rtt_mean_ms);
  EXPECT_DOUBLE_EQ(a.rtt_sd_ms, b.rtt_sd_ms);
  EXPECT_DOUBLE_EQ(a.fps_mean, b.fps_mean);
  EXPECT_DOUBLE_EQ(a.fps_sd, b.fps_sd);
  EXPECT_DOUBLE_EQ(a.loss_mean, b.loss_mean);
  EXPECT_DOUBLE_EQ(a.steady_mean_mbps, b.steady_mean_mbps);
  EXPECT_DOUBLE_EQ(a.steady_sd_mbps, b.steady_sd_mbps);
  EXPECT_DOUBLE_EQ(a.rr.response_s, b.rr.response_s);
  EXPECT_DOUBLE_EQ(a.rr.recovery_s, b.rr.recovery_s);
  EXPECT_EQ(a.rr.responded, b.rr.responded);
  EXPECT_EQ(a.rr.recovered, b.rr.recovered);
}

}  // namespace cgs::core
