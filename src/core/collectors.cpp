#include "core/collectors.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace cgs::core {

namespace {
std::size_t bucket_index(Time t, Time interval) {
  return std::size_t(t.count() / interval.count());
}
}  // namespace

std::size_t RunTrace::bucket_of(Time t) const {
  return bucket_index(t, sample_interval);
}

const FlowTrace* RunTrace::flow(net::FlowId id) const {
  for (const FlowTrace& f : flows) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

const LinkTrace* RunTrace::link(std::string_view name) const {
  for (const LinkTrace& l : links) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

double RunTrace::mean_flow_mbps(net::FlowId id, Time from, Time to) const {
  const FlowTrace* f = flow(id);
  return f != nullptr ? mean_bitrate_mbps(f->mbps, from, to) : 0.0;
}

double RunTrace::mean_bitrate_mbps(const std::vector<double>& series,
                                   Time from, Time to) const {
  RunningStats s;
  const std::size_t lo = bucket_of(from);
  const std::size_t hi = std::min(bucket_of(to), series.size());
  for (std::size_t i = lo; i < hi; ++i) s.add(series[i]);
  return s.mean();
}

double RunTrace::sd_bitrate_mbps(const std::vector<double>& series, Time from,
                                 Time to) const {
  RunningStats s;
  const std::size_t lo = bucket_of(from);
  const std::size_t hi = std::min(bucket_of(to), series.size());
  for (std::size_t i = lo; i < hi; ++i) s.add(series[i]);
  return s.stddev();
}

double RunTrace::mean_rtt_ms(Time from, Time to) const {
  RunningStats s;
  for (const auto& r : rtt) {
    if (r.at >= from && r.at < to) s.add(to_seconds(r.rtt) * 1e3);
  }
  return s.mean();
}

double RunTrace::sd_rtt_ms(Time from, Time to) const {
  RunningStats s;
  for (const auto& r : rtt) {
    if (r.at >= from && r.at < to) s.add(to_seconds(r.rtt) * 1e3);
  }
  return s.stddev();
}

double RunTrace::game_loss_in(Time from, Time to) const {
  if (game_pkts_recv.empty()) return 0.0;
  const std::size_t lo =
      std::min(bucket_of(from), game_pkts_recv.size() - 1);
  const std::size_t hi = std::min(bucket_of(to), game_pkts_recv.size() - 1);
  if (hi <= lo) return 0.0;
  const double recv = double(game_pkts_recv[hi] - game_pkts_recv[lo]);
  const double lost = double(game_pkts_lost[hi] - game_pkts_lost[lo]);
  const double expected = recv + lost;
  return expected > 0.0 ? lost / expected : 0.0;
}

double RunTrace::fps_over(Time from, Time to) const {
  if (to <= from) return 0.0;
  const auto lo = std::lower_bound(frame_times.begin(), frame_times.end(), from);
  const auto hi = std::lower_bound(frame_times.begin(), frame_times.end(), to);
  return double(std::distance(lo, hi)) / to_seconds(to - from);
}

TraceCollectors::TraceCollectors(sim::Simulator& sim, Time duration,
                                 Time sample_interval,
                                 std::vector<FlowInfo> flows)
    : TraceCollectors(sim, duration, sample_interval, std::move(flows),
                      Policy{}) {}

TraceCollectors::TraceCollectors(sim::Simulator& sim, Time duration,
                                 Time sample_interval,
                                 std::vector<FlowInfo> flows, Policy policy)
    : sim_(sim),
      duration_(duration),
      interval_(sample_interval *
                std::int64_t(std::max<std::size_t>(policy.stride, 1))),
      n_buckets_(bucket_index(duration, interval_) + 1),
      flows_(std::move(flows)),
      tracked_(policy.max_flow_series == 0
                   ? flows_.size()
                   : std::min(policy.max_flow_series, flows_.size())),
      flow_bytes_(tracked_ + 1,
                  ByteSeries{std::vector<std::int64_t>(n_buckets_, 0)}),
      recv_samples_(tracked_, std::vector<std::uint64_t>(n_buckets_ + 1, 0)),
      lost_samples_(tracked_, std::vector<std::uint64_t>(n_buckets_ + 1, 0)),
      receivers_(tracked_, nullptr),
      drops_(n_buckets_ + 1, 0),
      tap_bytes_(tracked_ + 1, 0),
      tap_pkts_(tracked_ + 1, 0),
      sampler_(sim, interval_, [this] { sample_counters(); }) {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flow_index_.emplace(flows_[i].id, i);
  }
}

std::vector<std::int64_t> TraceCollectors::ByteSeries::with_tail(
    std::size_t open, std::int64_t total) const {
  std::vector<std::int64_t> out = buckets;
  out[open] += total - closed;
  return out;
}

void TraceCollectors::attach_link(const net::Link& link,
                                  const net::FlowDemux& egress,
                                  std::vector<net::FlowId> terminal_flows) {
  LinkTap& tap = links_.emplace_back();
  tap.name = link.name();
  tap.link = &link;
  tap.util.buckets.assign(n_buckets_, 0);
  tap.depth.assign(n_buckets_ + 1, 0);
  tap.drops.assign(n_buckets_ + 1, 0);

  // Per-flow goodput is accounted only at a flow's terminal hop.  Flows
  // past the policy's series cap keep their bulk-TCP bytes in the shared
  // residual slot instead of a per-flow series.
  for (net::FlowId id : terminal_flows) {
    const auto it = flow_index_.find(id);
    if (it == flow_index_.end()) continue;
    if (it->second < tracked_) {
      terminals_.push_back({&egress, id, it->second});
    } else if (flows_[it->second].kind == FlowKind::kBulkTcp) {
      terminals_.push_back({&egress, id, tracked_});
    }
  }
}

void TraceCollectors::attach_game_receiver(net::FlowId id,
                                           const stream::StreamReceiver& recv) {
  const auto it = flow_index_.find(id);
  if (it != flow_index_.end() && it->second < tracked_) {
    receivers_[it->second] = &recv;
  }
}

void TraceCollectors::start() { sampler_.start(); }

void TraceCollectors::sum_terminals(Time boundary,
                                    std::vector<std::int64_t>& bytes,
                                    std::vector<std::uint64_t>& pkts) const {
  std::fill(bytes.begin(), bytes.end(), 0);
  std::fill(pkts.begin(), pkts.end(), 0);
  for (const TerminalTap& tap : terminals_) {
    const net::DeliveryCounter* c = tap.egress->delivered(tap.flow);
    if (c == nullptr) continue;
    bytes[tap.slot] += c->bytes_before(boundary);
    pkts[tap.slot] += c->pkts;
  }
}

void TraceCollectors::sample_counters() {
  // The sampler fires at k * interval; entry k holds the cumulative counts
  // at that boundary (entry 0 stays zero: counts at t=0), and the bytes
  // delivered before it close bucket k - 1.
  const Time now = sim_.now();
  const auto k = std::min(
      std::size_t((now.count() + interval_.count() / 2) / interval_.count()),
      n_buckets_);
  const bool closes_bucket = k >= 1 && k < n_buckets_;
  if (closes_bucket) open_bucket_ = k;

  std::uint64_t drops = 0;
  for (LinkTap& tap : links_) {
    const net::Queue& q = tap.link->queue();
    tap.depth[k] = std::uint64_t(q.byte_length().bytes());
    tap.drops[k] = q.drops_total();
    drops += q.drops_total();
    if (closes_bucket) {
      tap.util.close(k - 1, tap.link->deliveries().bytes_before(now));
    }
  }
  drops_[k] = drops;

  sum_terminals(now, tap_bytes_, tap_pkts_);
  if (closes_bucket) {
    for (std::size_t i = 0; i <= tracked_; ++i) {
      flow_bytes_[i].close(k - 1, tap_bytes_[i]);
    }
  }
  for (std::size_t i = 0; i < tracked_; ++i) {
    if (receivers_[i] != nullptr) {
      recv_samples_[i][k] = receivers_[i]->packets_received();
      lost_samples_[i][k] = receivers_[i]->packets_lost();
    } else {
      recv_samples_[i][k] = tap_pkts_[i];
    }
  }
}

RunTrace TraceCollectors::finalize(const PingClient* ping,
                                   const stream::StreamReceiver* recv) const {
  RunTrace t;
  t.sample_interval = interval_;
  t.duration = duration_;
  const double ival_s = to_seconds(interval_);

  // Bytes delivered since the last sampled boundary belong to the bucket
  // it opened.
  std::vector<std::int64_t> total_bytes(tracked_ + 1, 0);
  std::vector<std::uint64_t> total_pkts(tracked_ + 1, 0);
  sum_terminals(kTimeInfinite, total_bytes, total_pkts);

  t.flows.resize(tracked_);
  for (std::size_t i = 0; i < tracked_; ++i) {
    FlowTrace& f = t.flows[i];
    f.id = flows_[i].id;
    f.name = flows_[i].name;
    f.kind = flows_[i].kind;
    const std::vector<std::int64_t> bytes =
        flow_bytes_[i].with_tail(open_bucket_, total_bytes[i]);
    f.mbps.resize(n_buckets_);
    for (std::size_t b = 0; b < n_buckets_; ++b) {
      f.mbps[b] = double(bytes[b]) * 8.0 / ival_s / 1e6;
    }
    // Boundary-indexed cumulative counters: entry k = count at k * interval.
    f.pkts_recv = recv_samples_[i];
    f.pkts_lost = lost_samples_[i];
  }

  // Legacy two-flow views: primary game flow + sum of bulk-TCP flows.
  t.game_mbps.assign(n_buckets_, 0.0);
  t.tcp_mbps.assign(n_buckets_, 0.0);
  t.game_pkts_recv.assign(n_buckets_ + 1, 0);
  t.game_pkts_lost.assign(n_buckets_ + 1, 0);
  bool game_seen = false;
  for (const FlowTrace& f : t.flows) {
    if (f.kind == FlowKind::kGameStream && !game_seen) {
      game_seen = true;
      t.game_mbps = f.mbps;
      t.game_pkts_recv = f.pkts_recv;
      t.game_pkts_lost = f.pkts_lost;
    } else if (f.kind == FlowKind::kBulkTcp) {
      for (std::size_t b = 0; b < n_buckets_; ++b) t.tcp_mbps[b] += f.mbps[b];
    }
  }
  // Untracked bulk-TCP flows still contribute to the aggregate view.
  const std::vector<std::int64_t> residual =
      flow_bytes_[tracked_].with_tail(open_bucket_, total_bytes[tracked_]);
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    t.tcp_mbps[b] += double(residual[b]) * 8.0 / ival_s / 1e6;
  }

  t.queue_drops = drops_;

  t.links.resize(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const LinkTap& tap = links_[i];
    LinkTrace& l = t.links[i];
    l.name = tap.name;
    const std::vector<std::int64_t> util =
        tap.util.with_tail(open_bucket_, tap.link->deliveries().bytes);
    l.util_mbps.resize(n_buckets_);
    for (std::size_t b = 0; b < n_buckets_; ++b) {
      l.util_mbps[b] = double(util[b]) * 8.0 / ival_s / 1e6;
    }
    l.depth_bytes = tap.depth;
    l.drops = tap.drops;
  }

  if (ping != nullptr) t.rtt = ping->samples();
  if (recv != nullptr) t.frame_times = recv->display().presentation_times();
  return t;
}

}  // namespace cgs::core
