// Hybrid-fidelity fleet layer: fluid background sessions over the packet
// topology.
//
// A FleetSpec describes populations of background sessions (game streams,
// bulk Cubic, bulk BBR) that are modelled as aggregate arrival-rate
// processes instead of per-packet endpoints.  FluidAggregate keeps the
// whole population in flyweight SoA arrays — no endpoints, no per-session
// trace series — and on a coarse tick (kFleetTick, 100 ms) sums each link's
// offered fluid rate, applies the deterministic capacity-sharing rule
// (DESIGN.md "Hybrid fidelity & fleet modeling"), and injects the served
// fluid rate into the Link's service model, stealing serialization
// capacity from the full-fidelity packet path.  Per-tick per-session
// served-rate samples feed O(1) population digests (fixed-bin percentile
// histogram, stall counters, Jain accumulators), so a 1000-session run
// costs O(sessions) arithmetic per tick and O(1) memory per session.
//
// Determinism: all churn (Poisson arrivals, exponential lifetimes, per-
// session rate jitter) is drawn from dedicated Pcg32 streams keyed by
// (scenario seed, source index) — streams 0xf1e0 + i — so fleet traffic
// never perturbs any packet flow's RNG, and adding a source never reseeds
// another.  An empty FleetSpec constructs nothing and leaves the packet
// path bit-identical to a fleet-free build.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/topology.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace cgs::net {

/// Traffic class of a fluid source (per-class rate envelopes).
enum class FluidClass : std::uint8_t { kGameStream, kBulkCubic, kBulkBbr };

[[nodiscard]] std::string_view to_string(FluidClass c);

/// Default per-session envelope peak for a class.  Game streams use the
/// Table-1 steady-state band (~25 Mb/s, the middle of 23.7–27.5 across the
/// three systems); bulk classes model a saturating TCP flow whose fair
/// share would exceed the envelope, pinned at the paper's 25 Mb/s default
/// bottleneck.
[[nodiscard]] Bandwidth fluid_default_rate(FluidClass c);

/// One population of fluid background sessions on one link.
struct FluidSourceSpec {
  FluidClass cls = FluidClass::kBulkCubic;

  /// Topology link carrying this population; empty = the first link.
  std::string link;

  /// Initial session count at t=0.
  std::uint32_t sessions = 0;

  /// Per-session envelope peak in Mb/s; 0 = class default
  /// (fluid_default_rate).
  double rate_mbps = 0.0;

  /// Lognormal sd/mean of the per-session rate drawn at arrival
  /// (0 = every session at the envelope exactly).
  double rate_jitter = 0.1;

  /// Poisson session arrival rate (per minute); 0 = static population.
  double arrival_per_min = 0.0;

  /// Mean exponential session lifetime in seconds; 0 = sessions never
  /// depart.
  double mean_holding_s = 0.0;

  /// Diurnal load curve: arrival-rate multipliers spread evenly across the
  /// run's duration (entry k governs the k-th fraction of the run).  Empty
  /// = flat load.
  std::vector<double> diurnal;

  /// Churn population cap; 0 = unbounded.
  std::uint32_t max_sessions = 0;
};

/// Index of the link of `spec` that carries `src`: its named link, else
/// the first.  The name must resolve (Scenario::validate checks it).
[[nodiscard]] std::size_t source_link(const TopologySpec& spec,
                                      const FluidSourceSpec& src);

/// Fluid model tick: churn + capacity sharing + digest updates run once
/// per tick.  Coarser ticks are cheaper and less responsive.
inline constexpr Time kFleetTick = std::chrono::milliseconds(100);

/// A session stalls in a tick when served/demand falls below this.
inline constexpr double kFleetStallThreshold = 0.8;

/// Scenario-level fleet description: the fluid sources, all ticked on
/// kFleetTick.
struct FleetSpec {
  std::vector<FluidSourceSpec> sources;

  [[nodiscard]] bool empty() const { return sources.empty(); }

  /// Sum of initial sessions across sources.
  [[nodiscard]] std::uint64_t initial_sessions() const;
};

/// Mean fluid load carried by one link over the run.
struct FleetLinkLoad {
  std::string link;
  double offered_mbps_mean = 0.0;
  double served_mbps_mean = 0.0;
};

/// Population digest of one run's fleet (part of RunTrace).
struct FleetResult {
  bool active = false;

  std::uint64_t ticks = 0;
  std::uint64_t session_ticks = 0;  // digest sample count
  std::uint64_t stall_ticks = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint32_t peak_sessions = 0;
  std::uint32_t final_sessions = 0;

  // Population per-session served-bitrate digest (per-tick samples).
  double mean_mbps = 0.0;
  double p50_mbps = 0.0;
  double p95_mbps = 0.0;
  double p99_mbps = 0.0;

  /// Fraction of session-ticks below the stall threshold.
  double stall_rate = 0.0;

  /// Jain fairness index over per-session lifetime-mean served rates.
  double jain = 0.0;

  std::vector<FleetLinkLoad> links;
};

/// The flyweight fleet runtime: owns every fluid session as SoA rows,
/// ticks the churn/capacity-sharing/digest loop, and injects per-link
/// fluid load into the packet path via Link::set_fluid_load.
class FluidAggregate {
 public:
  /// `spec` must have passed Scenario::validate(); every named link must
  /// resolve in `graph`.
  FluidAggregate(sim::Simulator& sim, TopologyGraph& graph,
                 const FleetSpec& spec, Time duration, std::uint64_t seed);
  FluidAggregate(const FluidAggregate&) = delete;
  FluidAggregate& operator=(const FluidAggregate&) = delete;
  ~FluidAggregate();

  /// Begin ticking (first tick fires immediately, so fluid load is in
  /// place before the first packet serializes).
  void start();

  [[nodiscard]] std::size_t session_count() const { return group_.size(); }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  /// One fluid tick: churn, per-link demand, capacity sharing, digests.
  /// Public for the fluid-tick microbench; normal runs drive it from the
  /// periodic timer armed by start().
  void tick();

  /// Population digest of everything ticked so far (alive sessions' means
  /// are folded into the Jain figure as if they departed now).
  [[nodiscard]] FleetResult finalize() const;

 private:
  struct SourceState {
    FluidSourceSpec spec;
    std::size_t link = 0;       // resolved topology link index
    double base_mbps = 0.0;     // resolved envelope peak
    Pcg32 rng;
    SourceState() : rng(0) {}
  };

  void arrive(std::size_t source, Time now);
  void depart(std::size_t row);
  [[nodiscard]] double diurnal_at(const FluidSourceSpec& s, Time now) const;
  [[nodiscard]] double envelope(FluidClass c, std::uint32_t phase) const;

  sim::Simulator& sim_;
  TopologyGraph& graph_;
  FleetSpec spec_;
  Time duration_;
  std::vector<SourceState> sources_;

  // One session per row, SoA.  Swap-remove keeps rows dense; no per-
  // session identity outlives departure (lifetime means fold into the
  // Jain accumulators).
  std::vector<float> rate_mbps_;       // per-session envelope peak
  std::vector<float> served_sum_;      // accumulated served Mb/s over life
  std::vector<std::uint32_t> life_ticks_;
  std::vector<std::int64_t> depart_ns_;  // absolute departure time; <0 never
  std::vector<std::uint16_t> group_;     // owning source index
  std::vector<std::uint16_t> phase_;     // envelope phase offset
  std::vector<float> scratch_rate_;      // per-tick demand cache

  // Per-link tick state, indexed by topology link.
  std::vector<double> offered_bps_;
  std::vector<double> share_;          // served/offered per link this tick
  std::vector<std::int64_t> last_arrived_;  // packet bytes at last tick
  std::vector<double> offered_sum_mbps_;    // per-link running sums
  std::vector<double> served_sum_mbps_;

  // Population digests.
  PercentileDigest bitrate_;
  std::uint64_t session_ticks_ = 0;
  std::uint64_t stall_ticks_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t departures_ = 0;
  std::uint32_t peak_sessions_ = 0;
  std::uint64_t ticks_ = 0;
  // Jain over per-session lifetime means: folded at departure/finalize.
  double jain_sum_ = 0.0;
  double jain_sum2_ = 0.0;
  std::uint64_t jain_n_ = 0;

  sim::PeriodicTimer timer_;
};

}  // namespace cgs::net
