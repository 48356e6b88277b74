#include "core/collectors.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace cgs::core {

namespace {
std::size_t bucket_index(Time t, Time interval) {
  return std::size_t(t.count() / interval.count());
}

/// Zeros as long as the first link's `series` (none without links): a
/// collected trace's goodput series all have the bucket count, and its
/// boundary-indexed counters one entry more.
template <class T>
std::vector<T> link_shaped_zeros(const RunTrace& t,
                                 std::vector<T> LinkTrace::*series) {
  const std::size_t n = t.links.empty() ? 0 : (t.links.front().*series).size();
  return std::vector<T>(n, T{});
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

const FlowTrace* RunTrace::game_flow() const {
  for (const FlowTrace& f : flows) {
    if (f.kind == FlowKind::kGameStream) return &f;
  }
  return nullptr;
}

std::vector<double> RunTrace::game_mbps() const {
  const FlowTrace* g = game_flow();
  return g != nullptr ? g->mbps
                      : link_shaped_zeros(*this, &LinkTrace::util_mbps);
}

std::vector<double> RunTrace::tcp_mbps() const {
  std::vector<double> sum = link_shaped_zeros(*this, &LinkTrace::util_mbps);
  for (const FlowTrace& f : flows) {
    if (f.kind != FlowKind::kBulkTcp) continue;
    const std::size_t n = std::min(sum.size(), f.mbps.size());
    for (std::size_t b = 0; b < n; ++b) sum[b] += f.mbps[b];
  }
  return sum;
}

std::vector<std::uint64_t> RunTrace::game_pkts_recv() const {
  const FlowTrace* g = game_flow();
  return g != nullptr ? g->pkts_recv
                      : link_shaped_zeros(*this, &LinkTrace::drops);
}

std::vector<std::uint64_t> RunTrace::game_pkts_lost() const {
  const FlowTrace* g = game_flow();
  return g != nullptr ? g->pkts_lost
                      : link_shaped_zeros(*this, &LinkTrace::drops);
}

std::vector<std::uint64_t> RunTrace::queue_drops() const {
  std::vector<std::uint64_t> sum = link_shaped_zeros(*this, &LinkTrace::drops);
  for (const LinkTrace& l : links) {
    const std::size_t n = std::min(sum.size(), l.drops.size());
    for (std::size_t k = 0; k < n; ++k) sum[k] += l.drops[k];
  }
  return sum;
}

RunningStats window_stats(std::span<const double> series, Time interval,
                          Time from, Time to) {
  RunningStats s;
  const std::size_t lo = bucket_index(from, interval);
  const std::size_t hi = std::min(bucket_index(to, interval), series.size());
  for (std::size_t i = lo; i < hi; ++i) s.add(series[i]);
  return s;
}

double RunTrace::mean_bitrate_mbps(std::span<const double> series, Time from,
                                   Time to) const {
  return window_stats(series, sample_interval, from, to).mean();
}

double RunTrace::mean_rtt_ms(Time from, Time to) const {
  RunningStats s;
  for (const auto& r : rtt) {
    if (r.at >= from && r.at < to) s.add(to_seconds(r.rtt) * 1e3);
  }
  return s.mean();
}

double RunTrace::game_loss_in(Time from, Time to) const {
  const FlowTrace* g = game_flow();
  const std::size_t n =
      g != nullptr ? std::min(g->pkts_recv.size(), g->pkts_lost.size()) : 0;
  if (n == 0) return 0.0;
  // A run ends at `duration`, so its last sampled boundary is
  // bucket_of(duration); the entry after it stays zero.
  const std::size_t last = std::min(bucket_of(duration), n - 1);
  const std::size_t lo = std::min(bucket_of(from), last);
  const std::size_t hi = std::min(bucket_of(to), last);
  if (hi <= lo) return 0.0;
  const double recv = double(g->pkts_recv[hi] - g->pkts_recv[lo]);
  const double lost = double(g->pkts_lost[hi] - g->pkts_lost[lo]);
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
    : sim_(sim),
      duration_(duration),
      interval_(sample_interval),
      n_buckets_(bucket_index(duration, interval_) + 1),
      flows_(std::move(flows)),
      flow_bytes_(flows_.size(),
                  ByteSeries{std::vector<std::int64_t>(n_buckets_, 0)}),
      recv_samples_(flows_.size(),
                    std::vector<std::uint64_t>(n_buckets_ + 1, 0)),
      lost_samples_(flows_.size(),
                    std::vector<std::uint64_t>(n_buckets_ + 1, 0)),
      receivers_(flows_.size(), nullptr),
      terminals_(flows_.size(), nullptr),
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

  // Per-flow goodput is accounted only at a flow's terminal hop.
  for (net::FlowId id : terminal_flows) {
    const auto it = flow_index_.find(id);
    if (it != flow_index_.end()) terminals_[it->second] = &egress;
  }
}

void TraceCollectors::attach_game_receiver(net::FlowId id,
                                           const stream::StreamReceiver& recv) {
  const auto it = flow_index_.find(id);
  if (it != flow_index_.end()) receivers_[it->second] = &recv;
}

void TraceCollectors::start() { sampler_.start(); }

const net::DeliveryCounter* TraceCollectors::delivered(std::size_t i) const {
  return terminals_[i] != nullptr ? terminals_[i]->delivered(flows_[i].id)
                                  : nullptr;
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

  for (LinkTap& tap : links_) {
    const net::Queue& q = tap.link->queue();
    tap.depth[k] = std::uint64_t(q.byte_length().bytes());
    tap.drops[k] = q.drops_total();
    if (closes_bucket) {
      tap.util.close(k - 1, tap.link->deliveries().bytes_before(now));
    }
  }

  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const net::DeliveryCounter* c = delivered(i);
    if (closes_bucket) {
      flow_bytes_[i].close(k - 1, c != nullptr ? c->bytes_before(now) : 0);
    }
    if (receivers_[i] != nullptr) {
      recv_samples_[i][k] = receivers_[i]->packets_received();
      lost_samples_[i][k] = receivers_[i]->packets_lost();
    } else {
      recv_samples_[i][k] = c != nullptr ? c->pkts : 0;
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
  t.flows.resize(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowTrace& f = t.flows[i];
    f.id = flows_[i].id;
    f.name = flows_[i].name;
    f.kind = flows_[i].kind;
    const net::DeliveryCounter* c = delivered(i);
    const std::vector<std::int64_t> bytes =
        flow_bytes_[i].with_tail(open_bucket_, c != nullptr ? c->bytes : 0);
    f.mbps.resize(n_buckets_);
    for (std::size_t b = 0; b < n_buckets_; ++b) {
      f.mbps[b] = double(bytes[b]) * 8.0 / ival_s / 1e6;
    }
    // Boundary-indexed cumulative counters: entry k = count at k * interval.
    f.pkts_recv = recv_samples_[i];
    f.pkts_lost = lost_samples_[i];
  }

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
