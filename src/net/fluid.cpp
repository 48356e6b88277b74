#include "net/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cgs::net {
namespace {

/// Fluid traffic never takes the whole link: the packet path always keeps
/// at least this fraction of the capacity (the share rule's hard cap).
constexpr double kMaxFluidShare = 0.98;

/// Digest range: per-session served rates live inside [0, 1.5x] of the
/// largest class envelope peak (BBR's probe phase reaches 1.25x).
constexpr double kDigestHeadroom = 1.5;
constexpr std::size_t kDigestBins = 512;

/// Envelope period in ticks for the bulk classes' cyclic shapes.
constexpr std::uint32_t kEnvelopePeriod = 8;

/// Base RNG stream for fluid sources: source i draws from
/// Pcg32(splitmix64(seed ^ i), 0xf1e0 + i) — disjoint from flow streams
/// (ids 1..n), impairment streams (0xa00/0xd01 families) and the timer
/// wheel, so fleet churn never perturbs packet-path randomness.
constexpr std::uint64_t kFluidStreamBase = 0xf1e0;

}  // namespace

std::string_view to_string(FluidClass c) {
  switch (c) {
    case FluidClass::kGameStream: return "game";
    case FluidClass::kBulkCubic: return "cubic";
    case FluidClass::kBulkBbr: return "bbr";
  }
  return "?";
}

Bandwidth fluid_default_rate(FluidClass c) {
  switch (c) {
    // Table-1 steady-state band midpoint (Stadia 27.5, GeForce 24.5,
    // Luna 23.7 Mb/s).
    case FluidClass::kGameStream: return Bandwidth::mbps(25.0);
    // A saturating bulk flow's envelope peak: the paper's 25 Mb/s default
    // bottleneck — the share rule scales it down under contention.
    case FluidClass::kBulkCubic: return Bandwidth::mbps(25.0);
    case FluidClass::kBulkBbr: return Bandwidth::mbps(25.0);
  }
  return Bandwidth::mbps(25.0);
}

std::size_t source_link(const TopologySpec& spec, const FluidSourceSpec& src) {
  return src.link.empty() ? 0 : std::size_t(spec.link_index(src.link));
}

std::uint64_t FleetSpec::initial_sessions() const {
  std::uint64_t n = 0;
  for (const auto& s : sources) n += s.sessions;
  return n;
}

FluidAggregate::FluidAggregate(sim::Simulator& sim, TopologyGraph& graph,
                               const FleetSpec& spec, Time duration,
                               std::uint64_t seed)
    : sim_(sim),
      graph_(graph),
      spec_(spec),
      duration_(duration),
      offered_bps_(graph.link_count(), 0.0),
      share_(graph.link_count(), 1.0),
      last_arrived_(graph.link_count(), 0),
      offered_sum_mbps_(graph.link_count(), 0.0),
      served_sum_mbps_(graph.link_count(), 0.0),
      bitrate_(0.0, 1.0, kDigestBins),  // re-made below with the real range
      timer_(sim, kFleetTick, [this] { tick(); }) {
  double max_peak = 1.0;
  sources_.reserve(spec_.sources.size());
  for (std::size_t i = 0; i < spec_.sources.size(); ++i) {
    const FluidSourceSpec& src = spec_.sources[i];
    SourceState st;
    st.spec = src;
    st.link = source_link(graph_.spec(), src);
    assert(st.link < graph_.link_count() &&
           "fleet link must resolve (Scenario::validate)");
    st.base_mbps = src.rate_mbps > 0.0
                       ? src.rate_mbps
                       : fluid_default_rate(src.cls).megabits_per_sec();
    st.rng = Pcg32(splitmix64(seed ^ std::uint64_t(i)), kFluidStreamBase + i);
    max_peak = std::max(max_peak, st.base_mbps);
    sources_.push_back(std::move(st));
  }
  bitrate_ = PercentileDigest(0.0, max_peak * kDigestHeadroom, kDigestBins);

  // Initial population, placed at t=0 (before start() ticks).
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    for (std::uint32_t k = 0; k < sources_[i].spec.sessions; ++k) {
      arrive(i, kTimeZero);
    }
  }
  peak_sessions_ = std::uint32_t(group_.size());
}

FluidAggregate::~FluidAggregate() {
  // Leave links clean for any later reuse of the graph.
  for (std::size_t li = 0; li < graph_.link_count(); ++li) {
    graph_.link_at(li).set_fluid_load(Bandwidth::zero());
  }
}

void FluidAggregate::start() { timer_.start(/*fire_now=*/true); }

double FluidAggregate::diurnal_at(const FluidSourceSpec& s, Time now) const {
  if (s.diurnal.empty() || duration_ <= kTimeZero) return 1.0;
  const double frac = std::clamp(to_seconds(now) / to_seconds(duration_), 0.0, 1.0);
  auto idx = std::size_t(frac * double(s.diurnal.size()));
  if (idx >= s.diurnal.size()) idx = s.diurnal.size() - 1;
  return s.diurnal[idx];
}

double FluidAggregate::envelope(FluidClass c, std::uint32_t phase) const {
  const std::uint32_t p = phase % kEnvelopePeriod;
  switch (c) {
    case FluidClass::kGameStream:
      // Rate-capped streamer: flat at the encoder ladder rung.
      return 1.0;
    case FluidClass::kBulkCubic:
      // AIMD sawtooth: drop to 0.75 after "loss", climb back over the
      // period (mean ~0.875, Cubic's steady-state utilisation shape).
      return 0.75 + 0.25 * (double(p) / double(kEnvelopePeriod - 1));
    case FluidClass::kBulkBbr:
      // ProbeBW gain cycle: one probe (1.25), one drain (0.75), six cruise.
      if (p == 0) return 1.25;
      if (p == 1) return 0.75;
      return 1.0;
  }
  return 1.0;
}

void FluidAggregate::arrive(std::size_t source, Time now) {
  SourceState& st = sources_[source];
  if (st.spec.max_sessions > 0) {
    // Count only this source's rows against its cap.
    std::uint32_t alive = 0;
    for (std::uint16_t g : group_) alive += (g == source);
    if (alive >= st.spec.max_sessions) return;
  }
  double mbps = st.base_mbps;
  if (st.spec.rate_jitter > 0.0) {
    mbps = st.rng.lognormal_by_moments(st.base_mbps,
                                       st.base_mbps * st.spec.rate_jitter);
  }
  std::int64_t depart = -1;
  if (st.spec.mean_holding_s > 0.0) {
    const double hold = st.rng.exponential(st.spec.mean_holding_s);
    depart = (now + from_seconds(hold)).count();
  }
  rate_mbps_.push_back(float(mbps));
  served_sum_.push_back(0.0F);
  life_ticks_.push_back(0);
  depart_ns_.push_back(depart);
  group_.push_back(std::uint16_t(source));
  phase_.push_back(std::uint16_t(st.rng.next_bounded(kEnvelopePeriod)));
  ++arrivals_;
}

void FluidAggregate::depart(std::size_t row) {
  // Fold the session's lifetime mean into the Jain accumulators, then
  // swap-remove the row.
  if (life_ticks_[row] > 0) {
    const double mean = double(served_sum_[row]) / double(life_ticks_[row]);
    jain_sum_ += mean;
    jain_sum2_ += mean * mean;
    ++jain_n_;
  }
  const std::size_t last = group_.size() - 1;
  rate_mbps_[row] = rate_mbps_[last];
  served_sum_[row] = served_sum_[last];
  life_ticks_[row] = life_ticks_[last];
  depart_ns_[row] = depart_ns_[last];
  group_[row] = group_[last];
  phase_[row] = phase_[last];
  rate_mbps_.pop_back();
  served_sum_.pop_back();
  life_ticks_.pop_back();
  depart_ns_.pop_back();
  group_.pop_back();
  phase_.pop_back();
  ++departures_;
}

void FluidAggregate::tick() {
  const Time now = sim_.now();
  const double tick_s = to_seconds(kFleetTick);

  // 1. Churn: departures whose clock expired, then Poisson arrivals.
  for (std::size_t row = 0; row < group_.size();) {
    if (depart_ns_[row] >= 0 && depart_ns_[row] <= now.count()) {
      depart(row);  // swap-remove: re-examine the same row
    } else {
      ++row;
    }
  }
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    SourceState& st = sources_[i];
    if (st.spec.arrival_per_min <= 0.0) continue;
    const double lam =
        st.spec.arrival_per_min / 60.0 * tick_s * diurnal_at(st.spec, now);
    // Inverse-CDF Poisson draw: one uniform per tick, exact for the small
    // per-tick means a 100 ms tick produces.
    double u = st.rng.next_double();
    double p = std::exp(-lam);
    std::uint32_t k = 0;
    while (u > p && k < 64) {
      u -= p;
      ++k;
      p *= lam / double(k);
    }
    for (std::uint32_t a = 0; a < k; ++a) arrive(i, now);
  }
  peak_sessions_ = std::max(peak_sessions_, std::uint32_t(group_.size()));

  // 2. Per-session demand under the class envelope, summed per link.
  std::fill(offered_bps_.begin(), offered_bps_.end(), 0.0);
  const std::size_t n = group_.size();
  scratch_rate_.resize(n);
  for (std::size_t row = 0; row < n; ++row) {
    const SourceState& st = sources_[group_[row]];
    const double demand =
        double(rate_mbps_[row]) *
        envelope(st.spec.cls, phase_[row] + std::uint32_t(ticks_));
    scratch_rate_[row] = float(demand);
    offered_bps_[st.link] += demand * 1e6;
  }

  // 3. Capacity sharing per link: measure packet demand P as the arrived-
  // bytes delta over the previous tick, then serve the fluid demand F at
  // F (uncongested) or C*F/(F+P) (congested), capped at kMaxFluidShare*C.
  for (std::size_t li = 0; li < graph_.link_count(); ++li) {
    Link& link = graph_.link_at(li);
    const double cap_bps = double(link.rate().bits_per_sec());
    const std::int64_t arrived = link.bytes_arrived().bytes();
    const double pkt_bps =
        double(arrived - last_arrived_[li]) * 8.0 / tick_s;
    last_arrived_[li] = arrived;

    const double offered = offered_bps_[li];
    double served = offered;
    if (offered + pkt_bps > cap_bps && offered > 0.0) {
      served = cap_bps * offered / (offered + pkt_bps);
    }
    served = std::min(served, kMaxFluidShare * cap_bps);
    share_[li] = offered > 0.0 ? served / offered : 1.0;

    link.set_fluid_load(Bandwidth(std::int64_t(served)));
    offered_sum_mbps_[li] += offered / 1e6;
    served_sum_mbps_[li] += served / 1e6;
  }

  // 4. Digests: per-session served rate, stalls, lifetime sums.
  for (std::size_t row = 0; row < n; ++row) {
    const double demand = double(scratch_rate_[row]);
    const double served = demand * share_[sources_[group_[row]].link];
    bitrate_.add(served);
    served_sum_[row] += float(served);
    ++life_ticks_[row];
    ++session_ticks_;
    if (demand > 0.0 && served / demand < kFleetStallThreshold) {
      ++stall_ticks_;
    }
  }
  ++ticks_;
}

FleetResult FluidAggregate::finalize() const {
  FleetResult r;
  r.active = true;
  r.ticks = ticks_;
  r.session_ticks = session_ticks_;
  r.stall_ticks = stall_ticks_;
  r.arrivals = arrivals_;
  r.departures = departures_;
  r.peak_sessions = peak_sessions_;
  r.final_sessions = std::uint32_t(group_.size());

  r.mean_mbps = bitrate_.mean();
  r.p50_mbps = bitrate_.percentile(0.50);
  r.p95_mbps = bitrate_.percentile(0.95);
  r.p99_mbps = bitrate_.percentile(0.99);
  r.stall_rate =
      session_ticks_ > 0 ? double(stall_ticks_) / double(session_ticks_) : 0.0;

  // Jain over lifetime means: departed sessions are already folded; fold
  // the still-alive population as if it departed now.
  double s = jain_sum_, s2 = jain_sum2_;
  std::uint64_t jn = jain_n_;
  for (std::size_t row = 0; row < group_.size(); ++row) {
    if (life_ticks_[row] == 0) continue;
    const double mean = double(served_sum_[row]) / double(life_ticks_[row]);
    s += mean;
    s2 += mean * mean;
    ++jn;
  }
  r.jain = (jn > 0 && s2 > 0.0) ? (s * s) / (double(jn) * s2) : 0.0;

  r.links.reserve(graph_.link_count());
  for (std::size_t li = 0; li < graph_.link_count(); ++li) {
    FleetLinkLoad ll;
    ll.link = graph_.link_at(li).name();
    if (ticks_ > 0) {
      ll.offered_mbps_mean = offered_sum_mbps_[li] / double(ticks_);
      ll.served_mbps_mean = served_sum_mbps_[li] / double(ticks_);
    }
    r.links.push_back(std::move(ll));
  }
  return r;
}

}  // namespace cgs::net
