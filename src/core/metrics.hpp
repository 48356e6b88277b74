// The paper's derived metrics (§4.1–§4.2): fairness ratio, response /
// recovery times, and the combined adaptiveness score.
#pragma once

#include <vector>

#include "core/collectors.hpp"
#include "core/scenario.hpp"
#include "util/units.hpp"

namespace cgs::core {

/// The analysis windows of one cell (§4.1/§4.2).  analysis_windows() is
/// the only code that knows a window; every metric takes its result.
struct AnalysisWindows {
  Time compete_from{};      // [s, e): the bulk-TCP span; RTT, fps and loss
  Time compete_to{};        // are measured over it
  Time original_from{};     // pre-TCP baseline level
  Time original_to{};
  Time settled_from{};      // adjusted-to-TCP level
  Time settled_to{};
  Time fairness_from{};     // §4.1, skips the response transient
  Time fairness_to{};
  Time recovery_limit{};    // max measurable recovery after compete_to
  bool competitor = false;  // the mix has a bulk-TCP flow
};

/// Derives every window from the cell's schedule.  [s, e) runs from the
/// earliest bulk-TCP start to the latest stop (duration for an open-ended
/// flow) of effective_flows(); a mix without bulk TCP uses the scalar
/// tcp_start/tcp_stop.  Both ends are clamped into [0, duration].  With
/// cap(len, span) = span > len ? len : span / 2:
///   original = [s - cap(60 s, s), s)
///   settled  = [e - cap(60 s, e - s), e)
///   fairness = [s + cap(35 s, e - s), e)
///   recovery_limit = duration - e
/// DESIGN.md §3 tabulates them for the schedules in use.
[[nodiscard]] AnalysisWindows analysis_windows(const Scenario& sc);

/// (game - tcp) / capacity over the fairness window; in [-1, 1].
[[nodiscard]] double fairness_ratio(const std::vector<double>& game_mbps,
                                    const std::vector<double>& tcp_mbps,
                                    Time sample_interval, Bandwidth capacity,
                                    const AnalysisWindows& w);

struct ResponseRecovery {
  double response_s = 0.0;  // C: time to contract after TCP arrival
  double recovery_s = 0.0;  // E: time to expand after TCP departure
  bool responded = false;   // false: never reached the adjusted band
  bool recovered = false;   // false: never reached the original band
};

/// §4.2 definitions, computed on a (mean) bitrate series: response time is
/// the first time after compete_from at which the short-window average
/// bitrate is within one sd of the settled level; recovery analogously
/// after compete_to vs the original level.  Unreached bands are clamped to
/// the window length with responded/recovered = false.
[[nodiscard]] ResponseRecovery response_recovery(
    const std::vector<double>& game_mbps, Time sample_interval,
    const AnalysisWindows& w);

/// A = 1/2 (1 - C/Cmax) + 1/2 (1 - E/Emax).
[[nodiscard]] double adaptiveness(const ResponseRecovery& rr, double c_max_s,
                                  double e_max_s);

/// Jain's fairness index over per-flow throughputs (extra metric used by
/// the TCP-vs-TCP ablation).
[[nodiscard]] double jain_index(const std::vector<double>& throughputs);

/// Mean per-flow goodput over [from, to) for every throughput-bearing flow
/// of the mix (game streams and bulk TCP; ping probes excluded), in
/// RunTrace flow order.
[[nodiscard]] std::vector<double> flow_throughputs_mbps(const RunTrace& t,
                                                        Time from, Time to);

/// N-flow Jain's fairness index over the fairness window: jain_index of
/// flow_throughputs_mbps.  1.0 = perfectly even split across game + TCP
/// flows; 1/N = one flow starves all others.
[[nodiscard]] double jain_index(const RunTrace& t, const AnalysisWindows& w);

/// Harm (Ware et al., HotNets 2019; paper §5 future work): the fraction of
/// a flow's solo performance destroyed by a competitor.  For "more is
/// better" metrics (throughput): (solo - with) / solo.  Clamped to [0, 1];
/// 0 when solo is not positive.
[[nodiscard]] double harm_more_is_better(double solo, double with_competitor);

/// Harm for "less is better" metrics (delay, loss): (with - solo) / with.
[[nodiscard]] double harm_less_is_better(double solo, double with_competitor);

}  // namespace cgs::core
