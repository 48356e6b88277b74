// DASH/HLS-style adaptive video-on-demand client — the "competing Netflix
// stream" scenario from the paper's §5 future work.
//
// Models the essential player loop: fetch fixed-duration chunks over TCP at
// a quality picked from a bitrate ladder using a conservative throughput
// estimate; keep the playback buffer near a target; stall when it empties.
// The transport is this library's own TCP (any CcAlgo), using bounded
// transfers with completion callbacks.
#pragma once

#include <functional>
#include <vector>

#include "sim/timer.hpp"
#include "tcp/bulk_app.hpp"
#include "util/filters.hpp"

namespace cgs::apps {

struct DashConfig {
  /// Quality ladder (chunk encoding bitrates).
  std::vector<Bandwidth> ladder = {
      Bandwidth::mbps(1.0),  Bandwidth::mbps(2.5),  Bandwidth::mbps(5.0),
      Bandwidth::mbps(8.0),  Bandwidth::mbps(12.0), Bandwidth::mbps(16.0),
      Bandwidth::mbps(20.0)};
  Time chunk_duration = std::chrono::seconds(4);
  /// Stop requesting when this much playback is buffered.
  Time buffer_target = std::chrono::seconds(20);
  /// Throughput-estimate safety factor for quality selection.
  double safety = 0.8;
  /// EWMA gain for the per-chunk throughput estimate.
  double estimate_gain = 0.4;
};

/// Owns the TCP flow and drives the player loop.
class DashVideoClient {
 public:
  DashVideoClient(sim::Simulator& sim, net::PacketFactory& factory,
                  net::FlowId flow, tcp::CcAlgo algo, DashConfig cfg = {});

  /// Wire the underlying TCP flow (same contract as BulkTcpFlow::attach).
  void attach(net::PacketSink* downstream, net::PacketSink* upstream) {
    flow_.attach(downstream, upstream);
  }

  void start();
  void stop();

  // -- player state / stats -------------------------------------------------
  [[nodiscard]] Time buffer_level(Time now) const;
  [[nodiscard]] int chunks_fetched() const { return chunks_; }
  [[nodiscard]] std::size_t current_quality() const { return quality_; }
  [[nodiscard]] Bandwidth current_ladder_rate() const {
    return cfg_.ladder[quality_];
  }
  /// Total wall-clock time spent stalled (buffer empty while playing).
  [[nodiscard]] Time stall_time(Time now) const;
  [[nodiscard]] tcp::BulkTcpFlow& flow() { return flow_; }
  /// Mean ladder bitrate over all fetched chunks (video quality proxy).
  [[nodiscard]] Bandwidth mean_quality() const;

 private:
  void maybe_request(Time now);
  void on_chunk_complete(Time requested_at, ByteSize bytes);
  [[nodiscard]] std::size_t pick_quality() const;
  /// Advance the playback/stall clocks to `now`.
  void advance_playback(Time now) const;

  sim::Simulator& sim_;
  DashConfig cfg_;
  tcp::BulkTcpFlow flow_;
  sim::OneShotTimer wakeup_;

  bool running_ = false;
  bool fetching_ = false;
  std::size_t quality_ = 0;
  int chunks_ = 0;
  Ewma estimate_bps_{0.4};

  // Playback model: buffered media and stall accounting, advanced lazily.
  mutable Time buffered_ = kTimeZero;
  mutable Time stalled_total_ = kTimeZero;
  mutable Time last_advance_ = kTimeZero;

  std::int64_t quality_bps_sum_ = 0;
};

}  // namespace cgs::apps
