#include "core/testbed.hpp"

#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace cgs::core {

Pcg32 Testbed::flow_master_rng(std::uint64_t seed, net::FlowId id) {
  // Id 1 is the historical single-master derivation; see header.
  if (id == 1) return Pcg32(seed);
  return Pcg32(splitmix64(seed ^ (0x9e3779b97f4a7c15ULL * std::uint64_t(id))));
}

net::PacketSink* Testbed::upstream_entry(const FlowSpec& spec,
                                         net::PacketSink& up) {
  const net::ImpairmentConfig& cfg = scenario_.upstream_impairment(spec);
  if (!cfg.any()) return &up;
  // Private PCG stream per flow (0xa00 + id: matches the pre-registry
  // streams 0xa01/0xa02/0xa03 for the default game/tcp/ping mix).
  up_impairs_.push_back(std::make_unique<net::Impairment>(
      sim_, factory_, "up-" + spec.name, cfg,
      Pcg32(scenario_.seed, 0xa00 + std::uint64_t(spec.id)), &up));
  return up_impairs_.back().get();
}

void Testbed::build_game_flow(const FlowSpec& spec, Time pad_down,
                              Time pad_up) {
  // effective_flows() resolved the inherited Scenario::system.
  const stream::GameSystem sys = *spec.system;
  const auto& prof = stream::profile_for(sys);

  GameFlow g;
  g.spec = spec;

  stream::StreamSender::Options so;
  so.flow = spec.id;
  so.burst_factor = prof.burst_factor;
  auto controller = scenario_.controller_override
                        ? scenario_.controller_override()
                        : stream::make_controller(sys);
  g.sender = std::make_unique<stream::StreamSender>(
      sim_, factory_, so, stream::frame_config_for(sys), std::move(controller),
      flow_master_rng(scenario_.seed, spec.id).fork(0x6a6d));

  stream::StreamReceiver::Options ro;
  ro.flow = spec.id;
  ro.fec_rate = prof.fec_rate;
  ro.playout_deadline = prof.playout_deadline;
  g.receiver = std::make_unique<stream::StreamReceiver>(sim_, factory_, ro);

  g.access = std::make_unique<net::DelayLine>(
      sim_, pad_down + spec.extra_owd, &graph_->downstream_entry(spec.id));
  g.sender->set_output(g.access.get());
  graph_->register_client(spec.id, g.receiver.get());
  g.receiver->set_output(upstream_entry(
      spec, graph_->make_upstream(spec.id, pad_up, g.sender.get())));
  games_.push_back(std::move(g));
}

void Testbed::build_tcp_flow(const FlowSpec& spec, Time pad_down,
                             Time pad_up) {
  TcpFlow t;
  t.spec = spec;
  t.flow = std::make_unique<tcp::BulkTcpFlow>(sim_, factory_, spec.id,
                                              spec.algo);
  t.access = std::make_unique<net::DelayLine>(
      sim_, pad_down + spec.extra_owd, &graph_->downstream_entry(spec.id));
  graph_->register_client(spec.id, &t.flow->receiver());
  t.flow->attach(t.access.get(),
                 upstream_entry(spec, graph_->make_upstream(
                                          spec.id, pad_up, &t.flow->sender())));
  tcps_.push_back(std::move(t));
}

void Testbed::build_ping_flow(const FlowSpec& spec, Time pad_down,
                              Time pad_up) {
  PingFlow p;
  p.spec = spec;
  p.client = std::make_unique<PingClient>(sim_, factory_, spec.id);
  p.responder = std::make_unique<PingResponder>(sim_, factory_, spec.id);
  p.access = std::make_unique<net::DelayLine>(
      sim_, pad_down + spec.extra_owd, &graph_->downstream_entry(spec.id));
  p.responder->set_output(p.access.get());
  graph_->register_client(spec.id, p.client.get());
  p.client->set_output(upstream_entry(
      spec, graph_->make_upstream(spec.id, pad_up, p.responder.get())));
  pings_.push_back(std::move(p));
}

Testbed::Testbed(const Scenario& scenario) : Testbed(scenario, nullptr) {}

Testbed::Testbed(const Scenario& scenario, util::Arena* arena)
    : scenario_(scenario), sim_(arena), factory_(arena) {
  scenario_.validate();

  // Watchdog (fault-injection hardening): a run whose event count explodes
  // is livelocked; abort it with a diagnostic instead of spinning forever.
  // The auto budget is ~20x the busiest measured event rate per sim-second.
  std::uint64_t budget = scenario.watchdog_event_budget;
  if (budget == 0) {
    const auto secs =
        std::chrono::duration_cast<std::chrono::seconds>(scenario.duration)
            .count();
    budget = std::uint64_t(secs + 1) * 1'000'000;
  }
  sim_.set_watchdog(budget);

  // Instantiate the network graph.  Synthesized single-bottleneck specs
  // produce object for object the historical wiring (link "bottleneck",
  // ingress impairment "down" on PCG stream 0xd01), so legacy traces stay
  // bit-identical.
  graph_ = std::make_unique<net::TopologyGraph>(
      sim_, factory_, scenario_.effective_topology(), scenario_.graph_config());

  // Instantiate every flow of the mix, in declaration order (ids, seeds and
  // upstream-impairment streams are all keyed by the spec's resolved id, so
  // the order only fixes event-queue tie-breaks, not any flow's RNG).
  //
  // RTT padding (§3.3): every flow sees base_rtt end to end, whatever its
  // path's fixed propagation (net::access_pads, which validate() checked
  // is non-negative).  Per-flow extra_owd lengthens only the downstream
  // access segment.
  const std::vector<FlowSpec> specs = scenario_.effective_flows();
  for (const FlowSpec& spec : specs) {
    const net::AccessPads pads = net::access_pads(
        scenario_.base_rtt, net::path_delay(graph_->spec(), spec.id));
    switch (spec.kind) {
      case FlowKind::kGameStream:
        build_game_flow(spec, pads.down, pads.up);
        break;
      case FlowKind::kBulkTcp:
        build_tcp_flow(spec, pads.down, pads.up);
        break;
      case FlowKind::kPing:
        build_ping_flow(spec, pads.down, pads.up);
        break;
    }
  }

  // --- collectors ---------------------------------------------------------
  std::vector<TraceCollectors::FlowInfo> infos;
  infos.reserve(specs.size());
  for (const FlowSpec& spec : specs) {
    infos.push_back({spec.id, spec.name, spec.kind});
  }
  collectors_ = std::make_unique<TraceCollectors>(
      sim_, scenario.duration, std::chrono::milliseconds(500),
      std::move(infos));
  for (std::size_t i = 0; i < graph_->link_count(); ++i) {
    // A flow's goodput is measured at its terminal (client-side) hop so
    // multi-hop flows are not double-counted.
    std::vector<net::FlowId> terminal;
    for (const FlowSpec& spec : specs) {
      if (graph_->terminal_link(spec.id) == i) terminal.push_back(spec.id);
    }
    collectors_->attach_link(graph_->link_at(i), graph_->egress(i),
                             std::move(terminal));
  }
  for (const GameFlow& g : games_) {
    collectors_->attach_game_receiver(g.spec.id, *g.receiver);
  }

  // --- fluid fleet ---------------------------------------------------------
  // Constructed only for non-empty specs: a fleet-free scenario touches no
  // link state and schedules no tick, keeping golden traces bit-identical.
  if (!scenario_.fleet.empty()) {
    fluid_ = std::make_unique<net::FluidAggregate>(
        sim_, *graph_, scenario_.fleet, scenario_.duration, scenario_.seed);
  }

  // --- invariant auditors --------------------------------------------------
  // Observer-only (no RNG draws, no scheduled events), so enabling them
  // never perturbs a trace; kAuto turns them on for Debug builds only,
  // keeping Release benchmark numbers clean.  One auditor per link.
#ifdef NDEBUG
  const bool audit_on = scenario_.audit == Scenario::AuditMode::kOn;
#else
  const bool audit_on = scenario_.audit != Scenario::AuditMode::kOff;
#endif
  if (audit_on) {
    // Any ingress impairment can duplicate/reorder, which legitimately
    // breaks per-flow sequence order at the links.
    bool impaired = false;
    for (std::size_t i = 0; i < graph_->link_count(); ++i) {
      if (graph_->ingress_impairment(i) != nullptr) impaired = true;
    }
    for (std::size_t i = 0; i < graph_->link_count(); ++i) {
      SimAuditor::Options ao;
      ao.queue_capacity = graph_->queue_capacity(i);
      ao.check_sequences = !impaired;
      ao.cell_label = graph_->link_count() == 1
                          ? scenario_.label()
                          : scenario_.label() + " / " +
                                graph_->link_at(i).name();
      ao.seed = scenario_.seed;
      auditors_.push_back(std::make_unique<SimAuditor>(std::move(ao)));
      auditors_.back()->attach(graph_->link_at(i));
    }
  }
}

std::string Testbed::composition() const {
  std::ostringstream os;
  os << "mix[" << games_.size() << " game + " << tcps_.size() << " tcp + "
     << pings_.size() << " ping]";
  if (fluid_ != nullptr) {
    os << " fleet[" << fluid_->session_count() << " fluid sessions]";
  }
  return os.str();
}

stream::StreamSender& Testbed::game_sender() {
  if (games_.empty()) {
    throw std::logic_error(
        "Testbed: game_sender(): this mix has no game-stream flow "
        "(composition: " +
        composition() + ")");
  }
  return *games_.front().sender;
}

stream::StreamReceiver& Testbed::game_receiver() {
  if (games_.empty()) {
    throw std::logic_error(
        "Testbed: game_receiver(): this mix has no game-stream flow "
        "(composition: " +
        composition() + ")");
  }
  return *games_.front().receiver;
}

PingClient& Testbed::ping() {
  if (pings_.empty()) {
    throw std::logic_error(
        "Testbed: ping(): this mix has no ping flow (composition: " +
        composition() + ")");
  }
  return *pings_.front().client;
}

tcp::BulkTcpFlow* Testbed::tcp_flow() {
  return tcps_.empty() ? nullptr : tcps_.front().flow.get();
}

RunTrace Testbed::run() {
  inject_fault();
  // Deterministic per-link capacity changes (no-op without schedules, so
  // legacy scenarios see zero extra events).
  graph_->schedule_rate_changes();
  // Immediate starts first, in mix order, matching the pre-registry event
  // sequence (game receiver, game sender, ping client, collectors, then the
  // scheduled TCP start/stop events).
  for (GameFlow& g : games_) {
    if (g.spec.start <= kTimeZero) {
      g.receiver->start();
      g.sender->start();
    } else {
      sim_.schedule_at(g.spec.start, [&g] {
        g.receiver->start();
        g.sender->start();
      });
    }
    if (g.spec.stop) {
      sim_.schedule_at(*g.spec.stop, [&g] { g.sender->stop(); });
    }
  }
  for (PingFlow& p : pings_) {
    if (p.spec.start <= kTimeZero) {
      p.client->start();
    } else {
      sim_.schedule_at(p.spec.start, [&p] { p.client->start(); });
    }
    if (p.spec.stop) {
      sim_.schedule_at(*p.spec.stop, [&p] { p.client->stop(); });
    }
  }
  collectors_->start();
  if (fluid_) fluid_->start();
  for (TcpFlow& t : tcps_) {
    t.flow->schedule(sim_, t.spec.start,
                     t.spec.stop.value_or(scenario_.duration));
  }

  sim_.run_until(scenario_.duration);
  for (const auto& a : auditors_) a->final_check();
  RunTrace t = collectors_->finalize(
      pings_.empty() ? nullptr : pings_.front().client.get(),
      games_.empty() ? nullptr : games_.front().receiver.get());
  if (fluid_) t.fleet = fluid_->finalize();
  return t;
}

void Testbed::inject_fault() {
  const Scenario::FaultSpec& fault = scenario_.fault;
  if (fault.kind == Scenario::FaultKind::kNone) return;
  if (fault.seed != 0 && fault.seed != scenario_.seed) return;
  switch (fault.kind) {
    case Scenario::FaultKind::kCrash:
      // A real fatal signal, exactly what a wild pointer would produce:
      // in-process this kills the whole pool (which is the point of the
      // demonstration); forked it kills only the child.
      std::raise(SIGSEGV);
      return;
    case Scenario::FaultKind::kOom: {
      // Unbounded, touched allocations.  Under RLIMIT_AS this ends in
      // bad_alloc (classified kResource); uncapped it ends with the
      // kernel's OOM killer.  16 MB steps keep the loop brisk without
      // overshooting a limit by much.
      std::vector<std::unique_ptr<char[]>> hog;
      for (;;) {
        constexpr std::size_t kChunk = 16ull << 20;
        hog.push_back(std::make_unique<char[]>(kChunk));
        std::memset(hog.back().get(), 0x5a, kChunk);
      }
    }
    case Scenario::FaultKind::kSpin: {
      // A wedge the event budget cannot see: every 10 ms of sim time one
      // event burns ~20 ms of real time, so the event count stays tiny
      // while wall time runs away.  Caught by the supervisor's wall-clock
      // deadline when forked.
      sim_.schedule_at(kTimeZero, [this] {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(20);
        while (std::chrono::steady_clock::now() < until) {
        }
        sim_.reschedule_current_in(std::chrono::milliseconds(10));
      });
      return;
    }
    case Scenario::FaultKind::kNone:
      return;
  }
}

}  // namespace cgs::core
