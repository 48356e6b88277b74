#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace cgs::core {

namespace {
[[noreturn]] void invalid(const std::string& msg) {
  throw std::invalid_argument("Scenario: " + msg);
}

/// Explicit-topology half of Scenario::validate()
/// (`topology.links[i].field`-named errors, path resolution).
void validate_topology(const Scenario& sc);
}  // namespace

std::string_view to_string(FlowKind k) {
  switch (k) {
    case FlowKind::kGameStream: return "game";
    case FlowKind::kBulkTcp: return "tcp";
    case FlowKind::kPing: return "ping";
  }
  return "?";
}

FlowSpec FlowSpec::game_stream(std::optional<stream::GameSystem> sys) {
  FlowSpec f;
  f.kind = FlowKind::kGameStream;
  f.system = sys;
  return f;
}

FlowSpec FlowSpec::bulk_tcp(tcp::CcAlgo algo, Time start,
                            std::optional<Time> stop) {
  FlowSpec f;
  f.kind = FlowKind::kBulkTcp;
  f.algo = algo;
  f.start = start;
  f.stop = stop;
  return f;
}

FlowSpec FlowSpec::ping() {
  FlowSpec f;
  f.kind = FlowKind::kPing;
  return f;
}

std::vector<FlowSpec> Scenario::effective_flows() const {
  std::vector<FlowSpec> out;
  if (flows.empty()) {
    // The paper's Figure-1 mix.  Ids are pinned to the historical values
    // (game=1, tcp=2, ping=3) so the default topology — including per-flow
    // seed derivation and fq_codel flow hashing — reproduces pre-registry
    // traces bit-exactly.
    FlowSpec g = FlowSpec::game_stream(system);
    g.id = 1;
    g.name = "game";
    out.push_back(std::move(g));
    if (tcp_algo) {
      FlowSpec t = FlowSpec::bulk_tcp(*tcp_algo, tcp_start, tcp_stop);
      t.id = 2;
      t.name = "tcp";
      out.push_back(std::move(t));
    }
    FlowSpec p = FlowSpec::ping();
    p.id = 3;
    p.name = "ping";
    out.push_back(std::move(p));
    return out;
  }

  out = flows;
  // Resolve auto ids (first free id in declaration order), empty names and
  // the inherited game system.
  std::unordered_set<net::FlowId> used;
  for (const FlowSpec& f : out) {
    if (f.id != 0) used.insert(f.id);
  }
  net::FlowId next = 1;
  std::size_t index = 0;
  for (FlowSpec& f : out) {
    if (f.id == 0) {
      while (used.count(next) != 0) ++next;
      f.id = next;
      used.insert(next);
    }
    if (f.name.empty()) {
      std::ostringstream os;
      os << to_string(f.kind) << index;
      f.name = os.str();
    }
    if (f.kind == FlowKind::kGameStream && !f.system) f.system = system;
    ++index;
  }
  return out;
}

const net::ImpairmentConfig& Scenario::upstream_impairment(
    const FlowSpec& flow) const {
  return flow.impair_up ? *flow.impair_up : impair_up;
}

void Scenario::validate() const {
  if (capacity.bits_per_sec() <= 0) {
    std::ostringstream os;
    os << "capacity must be > 0 (got " << capacity.bits_per_sec() << " b/s)";
    invalid(os.str());
  }
  if (!(queue_bdp_mult > 0.0) || !std::isfinite(queue_bdp_mult)) {
    std::ostringstream os;
    os << "queue_bdp_mult must be > 0 (got " << queue_bdp_mult << ")";
    invalid(os.str());
  }
  if (duration <= kTimeZero) {
    std::ostringstream os;
    os << "duration must be > 0 (got " << to_seconds(duration) << " s)";
    invalid(os.str());
  }
  if (base_rtt <= kTimeZero) {
    std::ostringstream os;
    os << "base_rtt must be > 0 (got " << to_seconds(base_rtt) << " s)";
    invalid(os.str());
  }
  // The scalar TCP schedule only matters for the synthesized default mix.
  if (flows.empty() && tcp_algo) {
    if (tcp_start < kTimeZero) {
      std::ostringstream os;
      os << "tcp_start must be >= 0 (got " << to_seconds(tcp_start) << " s)";
      invalid(os.str());
    }
    if (tcp_start >= tcp_stop) {
      std::ostringstream os;
      os << "tcp_start (" << to_seconds(tcp_start)
         << " s) must be before tcp_stop (" << to_seconds(tcp_stop) << " s)";
      invalid(os.str());
    }
    if (tcp_stop > duration) {
      std::ostringstream os;
      os << "tcp_stop (" << to_seconds(tcp_stop)
         << " s) must not exceed duration (" << to_seconds(duration) << " s)";
      invalid(os.str());
    }
  }
  if (!flows.empty()) {
    std::unordered_set<net::FlowId> ids;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowSpec& f = flows[i];
      const auto field = [&](const char* leaf) {
        std::ostringstream os;
        os << "flows[" << i << "]." << leaf;
        return os.str();
      };
      if (f.id != 0 && !ids.insert(f.id).second) {
        std::ostringstream os;
        os << field("id") << " duplicates flow id " << f.id;
        invalid(os.str());
      }
      if (f.start < kTimeZero) {
        std::ostringstream os;
        os << field("start") << " must be >= 0 (got " << to_seconds(f.start)
           << " s)";
        invalid(os.str());
      }
      if (f.stop) {
        if (*f.stop <= f.start) {
          std::ostringstream os;
          os << field("stop") << " (" << to_seconds(*f.stop)
             << " s) must be after start (" << to_seconds(f.start) << " s)";
          invalid(os.str());
        }
        if (*f.stop > duration) {
          std::ostringstream os;
          os << field("stop") << " (" << to_seconds(*f.stop)
             << " s) must not exceed duration (" << to_seconds(duration)
             << " s)";
          invalid(os.str());
        }
      }
      if (f.extra_owd < kTimeZero) {
        std::ostringstream os;
        os << field("extra_owd") << " must be >= 0 (got "
           << to_seconds(f.extra_owd) << " s)";
        invalid(os.str());
      }
      if (f.impair_up) {
        f.impair_up->validate(field("impair_up"));
      }
    }
  }
  impair_down.validate("impair_down");
  impair_up.validate("impair_up");
  validate_topology(*this);

  // RTT-padding feasibility (§3.3), for the explicit and the synthesized
  // topology alike: each flow's fixed propagation must fit under base_rtt
  // so the access pads the Testbed inserts stay non-negative.
  const net::TopologySpec topo = effective_topology();
  for (const FlowSpec& f : effective_flows()) {
    const net::PathDelay fixed = net::path_delay(topo, f.id);
    const net::AccessPads pads = net::access_pads(base_rtt, fixed);
    if (pads.down < kTimeZero || pads.up < kTimeZero) {
      std::ostringstream os;
      os << "base_rtt (" << to_seconds(base_rtt)
         << " s) is too small for flow " << f.id << " ('" << f.name
         << "'): path propagation is " << to_seconds(fixed.down)
         << " s down + " << to_seconds(fixed.up) << " s up";
      invalid(os.str());
    }
  }

  if (!fleet.empty()) {
    if (duration < net::kFleetTick) {
      std::ostringstream os;
      os << "fleet tick (" << to_seconds(net::kFleetTick)
         << " s) must not exceed duration (" << to_seconds(duration) << " s)";
      invalid(os.str());
    }
    for (std::size_t i = 0; i < fleet.sources.size(); ++i) {
      const net::FluidSourceSpec& src = fleet.sources[i];
      const auto field = [&](const char* leaf) {
        std::ostringstream os;
        os << "fleet.sources[" << i << "]." << leaf;
        return os.str();
      };
      if (src.sessions == 0 && !(src.arrival_per_min > 0.0)) {
        std::ostringstream os;
        os << field("sessions")
           << " must be > 0 (or arrival_per_min > 0): the source would "
              "never carry a session";
        invalid(os.str());
      }
      const auto check_nonneg = [&](const char* leaf, double v) {
        if (v < 0.0 || !std::isfinite(v)) {
          std::ostringstream os;
          os << field(leaf) << " must be finite and >= 0 (got " << v << ")";
          invalid(os.str());
        }
      };
      check_nonneg("rate_mbps", src.rate_mbps);
      check_nonneg("rate_jitter", src.rate_jitter);
      check_nonneg("arrival_per_min", src.arrival_per_min);
      check_nonneg("mean_holding_s", src.mean_holding_s);
      for (std::size_t j = 0; j < src.diurnal.size(); ++j) {
        if (src.diurnal[j] < 0.0 || !std::isfinite(src.diurnal[j])) {
          std::ostringstream os;
          os << field("diurnal") << "[" << j
             << "] must be finite and >= 0 (got " << src.diurnal[j] << ")";
          invalid(os.str());
        }
      }
      if (src.max_sessions > 0 && src.max_sessions < src.sessions) {
        std::ostringstream os;
        os << field("max_sessions") << " (" << src.max_sessions
           << ") must be >= sessions (" << src.sessions << ")";
        invalid(os.str());
      }
      if (!src.link.empty() && topo.link_index(src.link) < 0) {
        std::ostringstream os;
        os << field("link") << " references unknown link '" << src.link
           << "'";
        invalid(os.str());
      }
    }
  }
}

namespace {

void validate_topology(const Scenario& sc) {
  if (sc.topology.empty()) return;
  if (sc.impair_down.any()) {
    invalid(
        "impair_down cannot be combined with an explicit topology; set "
        "topology.links[i].impair on the hop instead");
  }
  const net::TopologySpec topo = sc.topology.resolved();
  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i < topo.links.size(); ++i) {
    const net::LinkSpec& l = topo.links[i];
    const auto field = [&](const char* leaf) {
      std::ostringstream os;
      os << "topology.links[" << i << "]." << leaf;
      return os.str();
    };
    if (!names.insert(l.name).second) {
      std::ostringstream os;
      os << field("name") << " duplicates link name '" << l.name << "'";
      invalid(os.str());
    }
    if (l.rate.bits_per_sec() <= 0) {
      std::ostringstream os;
      os << field("rate") << " must be > 0 (got " << l.rate.bits_per_sec()
         << " b/s)";
      invalid(os.str());
    }
    if (l.prop_delay < kTimeZero) {
      std::ostringstream os;
      os << field("prop_delay") << " must be >= 0 (got "
         << to_seconds(l.prop_delay) << " s)";
      invalid(os.str());
    }
    if (l.queue_bdp_mult &&
        (!(*l.queue_bdp_mult > 0.0) || !std::isfinite(*l.queue_bdp_mult))) {
      std::ostringstream os;
      os << field("queue_bdp_mult") << " must be > 0 (got "
         << *l.queue_bdp_mult << ")";
      invalid(os.str());
    }
    if (l.queue_bytes && l.queue_bytes->bytes() <= 0) {
      std::ostringstream os;
      os << field("queue_bytes") << " must be > 0 (got "
         << l.queue_bytes->bytes() << ")";
      invalid(os.str());
    }
    if (l.impair) l.impair->validate(field("impair"));
    Time prev = kTimeZero;
    for (std::size_t j = 0; j < l.rate_schedule.size(); ++j) {
      const net::RateChange& rc = l.rate_schedule[j];
      if (rc.rate.bits_per_sec() <= 0) {
        std::ostringstream os;
        os << field("rate_schedule") << "[" << j << "].rate must be > 0 (got "
           << rc.rate.bits_per_sec() << " b/s)";
        invalid(os.str());
      }
      if (rc.at < prev) {
        std::ostringstream os;
        os << field("rate_schedule") << "[" << j
           << "].at must be non-decreasing (got " << to_seconds(rc.at)
           << " s after " << to_seconds(prev) << " s)";
        invalid(os.str());
      }
      prev = rc.at;
    }
  }
  const auto check_names = [&](const std::vector<std::string>& path,
                               const std::string& where) {
    for (const std::string& n : path) {
      if (topo.link_index(n) < 0) {
        std::ostringstream os;
        os << where << " references unknown link '" << n << "'";
        invalid(os.str());
      }
    }
  };
  check_names(topo.default_down, "topology.default_down");
  check_names(topo.default_up, "topology.default_up");
  for (std::size_t i = 0; i < topo.paths.size(); ++i) {
    std::ostringstream where;
    where << "topology.paths[" << i << "]";
    check_names(topo.paths[i].down, where.str() + ".down");
    check_names(topo.paths[i].up, where.str() + ".up");
  }
}

}  // namespace

net::TopologySpec Scenario::effective_topology() const {
  if (!topology.empty()) return topology.resolved();
  net::TopologySpec t =
      net::TopologySpec::single_bottleneck(capacity, kBottleneckProp);
  if (impair_down.any()) t.links[0].impair = impair_down;
  return t;
}

net::TopologyGraph::Config Scenario::graph_config() const {
  net::TopologyGraph::Config gc;
  gc.default_queue = queue_kind;
  gc.default_bdp_mult = queue_bdp_mult;
  gc.base_rtt = base_rtt;
  gc.seed = seed;
  return gc;
}

ByteSize Scenario::queue_bytes() const {
  return net::bdp_queue_bytes(capacity, base_rtt, queue_bdp_mult);
}

std::string Scenario::label() const {
  std::ostringstream os;
  os << stream::to_string(system) << " " << capacity.megabits_per_sec()
     << "Mb/s " << queue_bdp_mult << "xBDP ";
  if (!flows.empty()) {
    // Custom mix: count flows per kind, e.g. "mix[2 game + 2 tcp + 1 ping]".
    std::size_t games = 0, tcps = 0, pings = 0;
    for (const FlowSpec& f : flows) {
      if (f.kind == FlowKind::kGameStream) ++games;
      if (f.kind == FlowKind::kBulkTcp) ++tcps;
      if (f.kind == FlowKind::kPing) ++pings;
    }
    os << "mix[";
    const char* sep = "";
    for (auto [n, kind] : {std::pair{games, FlowKind::kGameStream},
                           {tcps, FlowKind::kBulkTcp},
                           {pings, FlowKind::kPing}}) {
      if (n == 0) continue;
      os << sep << n << " " << to_string(kind);
      sep = " + ";
    }
    os << "]";
  } else if (tcp_algo) {
    os << "vs " << tcp::to_string(*tcp_algo);
  } else {
    os << "solo";
  }
  if (queue_kind != QueueKind::kDropTail) {
    os << " [" << to_string(queue_kind) << "]";
  }
  if (!topology.empty()) {
    os << " @" << topology.name << "(" << topology.links.size() << " links)";
  }
  if (!fleet.empty()) {
    // e.g. "+fleet[300: 100 game + 200 cubic]" (initial populations).
    std::uint64_t per_class[3] = {0, 0, 0};
    for (const net::FluidSourceSpec& src : fleet.sources) {
      per_class[std::size_t(src.cls)] += src.sessions;
    }
    os << " +fleet[" << fleet.initial_sessions();
    const char* sep = ": ";
    for (auto cls : {net::FluidClass::kGameStream, net::FluidClass::kBulkCubic,
                     net::FluidClass::kBulkBbr}) {
      const std::uint64_t n = per_class[std::size_t(cls)];
      if (n == 0) continue;
      os << sep << n << " " << net::to_string(cls);
      sep = " + ";
    }
    os << "]";
  }
  return os.str();
}

Scenario parking_lot_scenario(const ParkingLotParams& p) {
  Scenario s;
  s.capacity = p.hop_rate;  // informational; per-link rates govern
  s.queue_bdp_mult = p.queue_bdp_mult;
  s.duration = p.duration;
  s.seed = p.seed;
  s.topology = net::TopologySpec::parking_lot(p.hops, p.hop_rate, p.hop_prop);

  const Time tcp_stop = p.tcp_stop.value_or(p.duration);
  net::FlowId next = 1;
  if (p.game_flow) {
    FlowSpec g = FlowSpec::game_stream();
    g.id = next++;
    g.name = "game";
    s.flows.push_back(std::move(g));
  }
  const auto add_tcp = [&](tcp::CcAlgo algo, const std::string& name) {
    FlowSpec t = FlowSpec::bulk_tcp(algo, p.tcp_start, tcp_stop);
    const net::FlowId id = next++;
    t.id = id;
    t.name = name;
    s.flows.push_back(std::move(t));
    return id;
  };
  for (std::size_t i = 0; i < p.bbr_flows; ++i) {
    std::ostringstream os;
    os << "bbr" << i;
    add_tcp(tcp::CcAlgo::kBbr, os.str());
  }
  for (std::size_t i = 0; i < p.cubic_flows; ++i) {
    std::ostringstream os;
    os << "cubic" << i;
    add_tcp(tcp::CcAlgo::kCubic, os.str());
  }
  for (std::size_t hop = 0; hop < p.hops; ++hop) {
    for (std::size_t c = 0; c < p.cross_per_hop; ++c) {
      std::ostringstream name, link;
      name << "x" << hop << "_" << c;
      link << "hop" << hop;
      const net::FlowId id = add_tcp(p.cross_algo, name.str());
      net::PathSpec path;
      path.flow = id;
      path.down = {link.str()};
      s.topology.paths.push_back(std::move(path));
    }
  }
  if (p.ping_flow) {
    FlowSpec ping = FlowSpec::ping();
    ping.id = next++;
    ping.name = "ping";
    s.flows.push_back(std::move(ping));
  }
  return s;
}

}  // namespace cgs::core
