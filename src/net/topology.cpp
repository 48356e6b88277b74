#include "net/topology.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/codel.hpp"
#include "util/logging.hpp"

namespace cgs::net {

FlowDemux::FlowDemux(const sim::Simulator& clock) : clock_(clock) {
  rehash(8);
}

std::size_t FlowDemux::find(FlowId flow) const {
  // Terminates: the table is never more than half full.
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home_slot(flow);; i = (i + 1) & mask) {
    const Route& r = table_[i];
    if (r.sink == nullptr) return kNoRoute;
    if (r.flow == flow) return i;
  }
}

void FlowDemux::rehash(std::size_t slots) {
  std::vector<Route> old(slots);
  old.swap(table_);
  shift_ = 32 - unsigned(std::countr_zero(slots));
  for (const Route& r : old) {
    if (r.sink == nullptr) continue;
    std::size_t i = home_slot(r.flow);
    while (table_[i].sink != nullptr) i = (i + 1) & (slots - 1);
    table_[i] = r;
  }
}

void FlowDemux::register_flow(FlowId flow, PacketSink* sink) {
  assert(sink != nullptr);
  if (const std::size_t i = find(flow); i != kNoRoute) {
    table_[i].sink = sink;
    return;
  }
  if (2 * (routes_ + 1) > table_.size()) rehash(2 * table_.size());
  std::size_t i = home_slot(flow);
  while (table_[i].sink != nullptr) i = (i + 1) & (table_.size() - 1);
  table_[i].sink = sink;
  table_[i].flow = flow;
  ++routes_;
}

const DeliveryCounter* FlowDemux::delivered(FlowId flow) const {
  const std::size_t i = find(flow);
  return i != kNoRoute ? &table_[i].counter : nullptr;
}

void FlowDemux::handle_packet(PacketPtr pkt) {
  const std::size_t i = find(pkt->flow);
  if (i == kNoRoute) {
    ++unroutable_;
    CGS_LOG_WARN("FlowDemux: no route for flow ", pkt->flow);
    return;  // drop
  }
  Route& r = table_[i];
  r.counter.add(pkt->size_bytes, clock_.now());
  r.sink->handle_packet(std::move(pkt));
}

std::string_view to_string(QueueKind k) {
  switch (k) {
    case QueueKind::kDropTail: return "droptail";
    case QueueKind::kCoDel: return "codel";
    case QueueKind::kFqCoDel: return "fq_codel";
  }
  return "?";
}

std::unique_ptr<Queue> make_queue(QueueKind kind, ByteSize capacity) {
  switch (kind) {
    case QueueKind::kDropTail:
      return std::make_unique<DropTailQueue>(capacity);
    case QueueKind::kCoDel: {
      CodelParams p;
      p.capacity = capacity;
      return std::make_unique<CodelQueue>(p);
    }
    case QueueKind::kFqCoDel: {
      CodelParams p;
      p.capacity = capacity;
      return std::make_unique<FqCodelQueue>(p);
    }
  }
  return nullptr;
}

int TopologySpec::link_index(std::string_view link_name) const {
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i].name == link_name) return int(i);
  }
  return -1;
}

const PathSpec* TopologySpec::path_for(FlowId flow) const {
  for (const PathSpec& p : paths) {
    if (p.flow == flow) return &p;
  }
  return nullptr;
}

TopologySpec TopologySpec::resolved() const {
  TopologySpec out = *this;
  for (std::size_t i = 0; i < out.links.size(); ++i) {
    if (out.links[i].name.empty()) {
      std::ostringstream os;
      os << "link" << i;
      out.links[i].name = os.str();
    }
  }
  return out;
}

TopologySpec TopologySpec::single_bottleneck(Bandwidth rate, Time prop_delay) {
  TopologySpec t;
  t.name = "bottleneck";
  LinkSpec l;
  l.name = "bottleneck";
  l.from = "router";
  l.to = "client";
  l.rate = rate;
  l.prop_delay = prop_delay;
  t.links.push_back(std::move(l));
  t.default_down = {"bottleneck"};
  return t;
}

TopologySpec TopologySpec::parking_lot(std::size_t hops, Bandwidth rate,
                                       Time prop_delay) {
  TopologySpec t;
  {
    std::ostringstream os;
    os << "parkinglot" << hops;
    t.name = os.str();
  }
  for (std::size_t i = 0; i < hops; ++i) {
    LinkSpec l;
    std::ostringstream name, from, to;
    name << "hop" << i;
    from << "n" << i;
    to << "n" << (i + 1);
    l.name = name.str();
    l.from = from.str();
    l.to = to.str();
    l.rate = rate;
    l.prop_delay = prop_delay;
    t.default_down.push_back(l.name);
    t.links.push_back(std::move(l));
  }
  return t;
}

TopologySpec TopologySpec::asymmetric(Bandwidth down_rate, Bandwidth up_rate,
                                      Time prop_delay) {
  TopologySpec t;
  t.name = "asym";
  LinkSpec down;
  down.name = "down";
  down.from = "server";
  down.to = "client";
  down.rate = down_rate;
  down.prop_delay = prop_delay;
  LinkSpec up;
  up.name = "up";
  up.from = "client";
  up.to = "server";
  up.rate = up_rate;
  up.prop_delay = prop_delay;
  t.links.push_back(std::move(down));
  t.links.push_back(std::move(up));
  t.default_down = {"down"};
  t.default_up = {"up"};
  return t;
}

namespace {
std::vector<std::size_t> resolve_names(const TopologySpec& spec,
                                       const std::vector<std::string>& names) {
  std::vector<std::size_t> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    const int i = spec.link_index(n);
    if (i < 0) {
      throw std::invalid_argument("TopologyGraph: topology '" + spec.name +
                                  "' path references unknown link '" + n +
                                  "'");
    }
    out.push_back(std::size_t(i));
  }
  return out;
}
}  // namespace

TopologyGraph::TopologyGraph(sim::Simulator& sim, PacketFactory& factory,
                             TopologySpec spec, const Config& cfg)
    : sim_(sim), spec_(spec.resolved()) {
  const std::size_t n = spec_.links.size();
  if (n == 0) {
    throw std::invalid_argument("TopologyGraph: topology '" + spec_.name +
                                "' has no links");
  }
  demux_.reserve(n);
  links_.reserve(n);
  impair_.reserve(n);
  queue_bytes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LinkSpec& ls = spec_.links[i];
    demux_.push_back(std::make_unique<FlowDemux>(sim));
    ByteSize qb{0};
    if (ls.queue_bytes) {
      qb = *ls.queue_bytes;
    } else {
      // Same derivation as Scenario::queue_bytes() so the synthesized
      // default sizes its queue identically to the retired router path.
      const ByteSize one_bdp = bdp(ls.rate, cfg.base_rtt);
      const double mult = ls.queue_bdp_mult.value_or(cfg.default_bdp_mult);
      const auto bytes = std::int64_t(double(one_bdp.bytes()) * mult);
      qb = ByteSize(std::max<std::int64_t>(bytes, 2 * 1514));
    }
    queue_bytes_.push_back(qb);
    links_.push_back(std::make_unique<Link>(
        sim, ls.name, ls.rate, ls.prop_delay,
        make_queue(ls.queue.value_or(cfg.default_queue), qb),
        demux_[i].get()));
    if (ls.impair && ls.impair->any()) {
      // A 1-link graph keeps the historical stage name "down" (it IS the
      // legacy downstream stage); multi-link graphs name stages by hop.
      const std::string stage_name =
          n == 1 ? "down" : ("in-" + ls.name);
      impair_.push_back(std::make_unique<Impairment>(
          sim, factory, stage_name, *ls.impair,
          Pcg32(cfg.seed, 0xd01 + std::uint64_t(i)), links_[i].get()));
    } else {
      impair_.push_back(nullptr);
    }
  }

  if (spec_.default_down.empty()) {
    // Chain topology: the default downstream path traverses every link.
    for (std::size_t i = 0; i < n; ++i) default_path_.down.push_back(i);
  } else {
    default_path_.down = resolve_names(spec_, spec_.default_down);
  }
  default_path_.up = resolve_names(spec_, spec_.default_up);
  for (const PathSpec& p : spec_.paths) {
    ResolvedPath rp;
    rp.down = p.down.empty() ? default_path_.down : resolve_names(spec_, p.down);
    rp.up = resolve_names(spec_, p.up);
    flow_paths_.emplace(p.flow, std::move(rp));
  }
}

Link* TopologyGraph::find_link(std::string_view link_name) {
  const int i = spec_.link_index(link_name);
  return i < 0 ? nullptr : links_[std::size_t(i)].get();
}

Link& TopologyGraph::bottleneck() {
  return const_cast<Link&>(std::as_const(*this).bottleneck());
}

const Link& TopologyGraph::bottleneck() const {
  if (links_.size() != 1) {
    std::ostringstream os;
    os << "TopologyGraph: bottleneck(): topology '" << spec_.name << "' has "
       << links_.size() << " links; there is no single bottleneck "
       << "(address links by name or index instead)";
    throw std::logic_error(os.str());
  }
  return *links_.front();
}

PacketSink& TopologyGraph::link_entry(std::size_t i) {
  if (impair_[i]) return *impair_[i];
  return *links_[i];
}

const TopologyGraph::ResolvedPath& TopologyGraph::resolved(FlowId flow) const {
  auto it = flow_paths_.find(flow);
  return it == flow_paths_.end() ? default_path_ : it->second;
}

PacketSink& TopologyGraph::downstream_entry(FlowId flow) {
  return link_entry(resolved(flow).down.front());
}

void TopologyGraph::register_client(FlowId flow, PacketSink* sink) {
  const ResolvedPath& path = resolved(flow);
  for (std::size_t j = 0; j + 1 < path.down.size(); ++j) {
    demux_[path.down[j]]->register_flow(flow,
                                        &link_entry(path.down[j + 1]));
  }
  demux_[path.down.back()]->register_flow(flow, sink);
}

std::size_t TopologyGraph::terminal_link(FlowId flow) const {
  return resolved(flow).down.back();
}

PacketSink& TopologyGraph::make_upstream(FlowId flow, Time pad,
                                         PacketSink* server_sink) {
  const ResolvedPath& path = resolved(flow);
  PacketSink* entry = server_sink;
  // Wire the upstream chain back to front: each hop's demux routes this
  // flow to the next hop's entry, the last hop to the server.
  for (std::size_t j = path.up.size(); j-- > 0;) {
    demux_[path.up[j]]->register_flow(flow, entry);
    entry = &link_entry(path.up[j]);
  }
  upstream_.push_back(std::make_unique<DelayLine>(sim_, pad, entry));
  return *upstream_.back();
}

PacketSink& TopologyGraph::make_delay_upstream(Time delay,
                                               PacketSink* server_sink) {
  upstream_.push_back(std::make_unique<DelayLine>(sim_, delay, server_sink));
  return *upstream_.back();
}

Time TopologyGraph::down_prop(FlowId flow) const {
  Time sum = kTimeZero;
  for (std::size_t i : resolved(flow).down) sum += spec_.links[i].prop_delay;
  return sum;
}

Time TopologyGraph::up_prop(FlowId flow) const {
  Time sum = kTimeZero;
  for (std::size_t i : resolved(flow).up) sum += spec_.links[i].prop_delay;
  return sum;
}

void TopologyGraph::schedule_rate_changes() {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    Link* link = links_[i].get();
    for (const RateChange& rc : spec_.links[i].rate_schedule) {
      sim_.schedule_at(rc.at, [link, rate = rc.rate] { link->set_rate(rate); });
    }
  }
}

}  // namespace cgs::net
