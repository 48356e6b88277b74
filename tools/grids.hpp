// Named parameter grids: the one place where an artifact's cells are
// defined.  Every bench binary except ext_video_competition renders one of
// these grids, and tools/sweep and tools/replay run, journal, resume and
// replay any of them by name (kGrids).
//
// A grid name + base seed fully determines the cell list, which is what
// lets a journal reference its grid with a one-line note
// ("grid=fig3 seed=42 runs=5") and tools/replay rebuild the exact same
// cells to re-run a journaled job.  Renderers, replay --cell and failure
// triage find cells by label, so a grid's labels are unique.
#pragma once

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cgstream.hpp"
#include "stream/controllers/stadia_like.hpp"

namespace cgs::tools {

using core::Scenario;
using core::SweepCell;
using stream::GameSystem;
using tcp::CcAlgo;

inline Scenario base_scenario(GameSystem sys, double cap_mbps,
                              double queue_mult, std::optional<CcAlgo> cc,
                              std::uint64_t seed) {
  Scenario sc;
  sc.system = sys;
  sc.capacity = Bandwidth::mbps(cap_mbps);
  sc.queue_bdp_mult = queue_mult;
  sc.tcp_algo = cc;
  sc.seed = seed;
  return sc;
}

inline std::string cell_label(GameSystem sys, double cap, double q,
                              std::optional<CcAlgo> cc) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %.0fMb/s %.1fxBDP %s",
                std::string(stream::to_string(sys)).c_str(), cap, q,
                cc ? std::string(tcp::to_string(*cc)).c_str() : "solo");
  return buf;
}

/// The paper's full competing-flow grid (Figs 3-4, Tables 4-5).
inline std::vector<SweepCell> competing_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
    for (GameSystem sys : core::kAllSystems) {
      for (double cap : core::kCapacitiesMbps) {
        for (double q : core::kQueueMults) {
          cells.push_back({cell_label(sys, cap, q, cc),
                           base_scenario(sys, cap, q, cc, seed)});
        }
      }
    }
  }
  return cells;
}

/// Table 3's solo grid.
inline std::vector<SweepCell> solo_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (GameSystem sys : core::kAllSystems) {
    for (double cap : core::kCapacitiesMbps) {
      for (double q : core::kQueueMults) {
        cells.push_back({cell_label(sys, cap, q, std::nullopt),
                         base_scenario(sys, cap, q, std::nullopt, seed)});
      }
    }
  }
  return cells;
}

/// Table 1: every system alone on a ~1 Gb/s link, unconstrained relative
/// to any system's maximum bitrate.
inline std::vector<SweepCell> table1_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (GameSystem sys : core::kAllSystems) {
    cells.push_back({cell_label(sys, 1000.0, 2.0, std::nullopt),
                     base_scenario(sys, 1000.0, 2.0, std::nullopt, seed)});
  }
  return cells;
}

/// Figure 2: the competing grid's 25 Mb/s slice.
inline std::vector<SweepCell> fig2_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells = competing_grid(seed);
  std::erase_if(cells, [](const SweepCell& c) {
    return c.scenario.capacity != Bandwidth::mbps(25.0);
  });
  return cells;
}

/// Ablation A1: drop-tail vs CoDel vs FQ-CoDel at 25 Mb/s, 7x BDP limit.
inline std::vector<SweepCell> aqm_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (GameSystem sys : core::kAllSystems) {
    for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
      for (core::QueueKind k : {core::QueueKind::kDropTail,
                                core::QueueKind::kCoDel,
                                core::QueueKind::kFqCoDel}) {
        Scenario sc = base_scenario(sys, 25.0, 7.0, cc, seed);
        sc.queue_kind = k;
        cells.push_back({cell_label(sys, 25.0, 7.0, cc) + " " +
                             std::string(core::to_string(k)),
                         std::move(sc)});
      }
    }
  }
  return cells;
}

/// Ablation A2: two bulk-TCP flows (ids 1 and 2, both from t = 0) sharing
/// a 25 Mb/s bottleneck for 60 s, 6 pairs x 3 queues, no game stream.
inline std::vector<SweepCell> tcp_pairs_grid(std::uint64_t seed) {
  const std::pair<CcAlgo, CcAlgo> pairs[] = {
      {CcAlgo::kCubic, CcAlgo::kCubic}, {CcAlgo::kBbr, CcAlgo::kBbr},
      {CcAlgo::kCubic, CcAlgo::kBbr},   {CcAlgo::kReno, CcAlgo::kCubic},
      {CcAlgo::kVegas, CcAlgo::kCubic}, {CcAlgo::kVegas, CcAlgo::kBbr},
  };
  std::vector<SweepCell> cells;
  for (const auto& [a, b] : pairs) {
    for (double q : core::kQueueMults) {
      Scenario sc =
          base_scenario(GameSystem::kStadia, 25.0, q, std::nullopt, seed);
      sc.duration = std::chrono::seconds(60);
      sc.flows = {core::FlowSpec::bulk_tcp(a, kTimeZero, std::nullopt),
                  core::FlowSpec::bulk_tcp(b, kTimeZero, std::nullopt)};
      sc.flows[0].id = 1;
      sc.flows[1].id = 2;
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s vs %s 25Mb/s %.1fxBDP",
                    std::string(tcp::to_string(a)).c_str(),
                    std::string(tcp::to_string(b)).c_str(), q);
      cells.push_back({buf, std::move(sc)});
    }
  }
  return cells;
}

/// Ablation A3: the Stadia-like controller with one mechanism knocked out
/// per variant, at 25 Mb/s and 2x BDP.  Labels are "<variant> <cc>".
inline std::vector<SweepCell> controller_grid(std::uint64_t seed) {
  using stream::StadiaLikeConfig;
  std::vector<std::pair<const char*, StadiaLikeConfig>> variants;
  variants.push_back({"baseline", StadiaLikeConfig{}});

  StadiaLikeConfig no_rel;
  no_rel.detector.rel_factor = 1e9;
  variants.push_back({"no-relative-delay", no_rel});

  StadiaLikeConfig no_standing;
  no_standing.standing_floor = Time(std::chrono::hours(1));
  variants.push_back({"no-standing-queue", no_standing});

  StadiaLikeConfig no_loss;
  no_loss.loss_threshold = 1.1;  // unreachable
  variants.push_back({"no-loss-law", no_loss});

  StadiaLikeConfig absolute;
  absolute.detector.rel_factor = 0.0;  // trigger when delay > abs_margin
  absolute.detector.abs_margin = std::chrono::milliseconds(25);
  absolute.standing_floor = Time(std::chrono::hours(1));
  variants.push_back({"absolute-delay-25ms", absolute});

  std::vector<SweepCell> cells;
  for (const auto& [name, cfg] : variants) {
    for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
      Scenario sc = base_scenario(GameSystem::kStadia, 25.0, 2.0, cc, seed);
      sc.controller_override = [cfg = cfg] {
        return std::make_unique<stream::StadiaLikeController>(cfg);
      };
      cells.push_back({std::string(name) + " " +
                           std::string(tcp::to_string(cc)),
                       std::move(sc)});
    }
  }
  return cells;
}

/// Extension E2: the game stream (id 1) against a mix of bulk-TCP flows
/// (ids 10 + i, active [60, 240) s) plus a ping (id 3), 25 Mb/s and 2x BDP
/// for 260 s.  Labels end in " vs <mix>".
inline std::vector<SweepCell> multiflow_grid(std::uint64_t seed) {
  const std::pair<const char*, std::vector<CcAlgo>> mixes[] = {
      {"1 cubic", {CcAlgo::kCubic}},
      {"2 cubic", {CcAlgo::kCubic, CcAlgo::kCubic}},
      {"4 cubic",
       {CcAlgo::kCubic, CcAlgo::kCubic, CcAlgo::kCubic, CcAlgo::kCubic}},
      {"1 bbr", {CcAlgo::kBbr}},
      {"2 bbr", {CcAlgo::kBbr, CcAlgo::kBbr}},
      {"cubic+bbr", {CcAlgo::kCubic, CcAlgo::kBbr}},
  };
  std::vector<SweepCell> cells;
  for (GameSystem sys : core::kAllSystems) {
    for (const auto& [name, ccas] : mixes) {
      Scenario sc = base_scenario(sys, 25.0, 2.0, std::nullopt, seed);
      sc.duration = std::chrono::seconds(260);
      sc.flows.push_back(core::FlowSpec::game_stream());
      sc.flows.back().id = 1;
      for (std::size_t i = 0; i < ccas.size(); ++i) {
        sc.flows.push_back(core::FlowSpec::bulk_tcp(
            ccas[i], std::chrono::seconds(60), std::chrono::seconds(240)));
        sc.flows.back().id = net::FlowId(10 + i);
      }
      sc.flows.push_back(core::FlowSpec::ping());
      sc.flows.back().id = 3;
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s 25Mb/s 2.0xBDP vs %s",
                    std::string(stream::to_string(sys)).c_str(), name);
      cells.push_back({buf, std::move(sc)});
    }
  }
  return cells;
}

/// Extension E3: per system and queue at 25 Mb/s, the solo stream and the
/// stream against Cubic and BBR, so each harm ratio compares two cells.
inline std::vector<SweepCell> harm_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (GameSystem sys : core::kAllSystems) {
    for (std::optional<CcAlgo> cc :
         {std::optional<CcAlgo>(), std::optional(CcAlgo::kCubic),
          std::optional(CcAlgo::kBbr)}) {
      for (double q : core::kQueueMults) {
        cells.push_back({cell_label(sys, 25.0, q, cc),
                         base_scenario(sys, 25.0, q, cc, seed)});
      }
    }
  }
  return cells;
}

/// Tiny grid on a 30 s schedule: the CI smoke target.
inline std::vector<SweepCell> smoke_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (GameSystem sys : {GameSystem::kStadia, GameSystem::kLuna}) {
    for (double q : {0.5, 2.0}) {
      Scenario sc = base_scenario(sys, 25.0, q, CcAlgo::kCubic, seed);
      sc.duration = std::chrono::seconds(30);
      sc.tcp_start = std::chrono::seconds(5);
      sc.tcp_stop = std::chrono::seconds(20);
      cells.push_back({cell_label(sys, 25.0, q, CcAlgo::kCubic), sc});
    }
  }
  return cells;
}

/// Failure-triage exercise grid: one healthy 30 s cell plus one whose
/// watchdog budget is deliberately too small for its schedule, so every
/// run of it fails deterministically with a WatchdogError.  CI drives the
/// sweep tool's triage/exit-code path and replay with this grid.
inline std::vector<SweepCell> sick_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  Scenario ok = base_scenario(GameSystem::kStadia, 25.0, 2.0, CcAlgo::kCubic,
                              seed);
  ok.duration = std::chrono::seconds(30);
  ok.tcp_start = std::chrono::seconds(5);
  ok.tcp_stop = std::chrono::seconds(20);
  cells.push_back({"healthy " + cell_label(GameSystem::kStadia, 25.0, 2.0,
                                           CcAlgo::kCubic),
                   ok});

  Scenario sick = ok;
  sick.watchdog_event_budget = 50'000;  // ~1000x too small for 30 s
  cells.push_back({"sick watchdog " + cell_label(GameSystem::kStadia, 25.0,
                                                 2.0, CcAlgo::kCubic),
                   sick});
  return cells;
}

/// Chaos-engineering grid for forked isolation: the smoke grid's first
/// cell kept healthy (the survivor baseline — its rows must be
/// bit-identical to a clean smoke run) plus three poisoned cells whose
/// every job dies a different process death: SIGSEGV, unbounded
/// allocation, and a wall-clock spin.  Only meaningful with
/// --isolation=forked; in-process the crash cell kills the whole tool,
/// which is exactly the failure mode forked isolation exists to remove.
inline std::vector<SweepCell> poison_grid(std::uint64_t seed) {
  const std::vector<SweepCell> smoke = smoke_grid(seed);
  std::vector<SweepCell> cells;
  cells.push_back(smoke[0]);  // untouched survivor

  const Scenario::FaultKind kinds[] = {Scenario::FaultKind::kCrash,
                                       Scenario::FaultKind::kOom,
                                       Scenario::FaultKind::kSpin};
  const char* names[] = {"crash", "oom", "spin"};
  for (std::size_t i = 0; i < 3; ++i) {
    SweepCell c = smoke[i + 1];
    c.scenario.fault.kind = kinds[i];
    c.label = std::string("poison-") + names[i] + " " + c.label;
    cells.push_back(std::move(c));
  }
  return cells;
}

/// Multi-bottleneck smoke grid: 3-hop parking lots on a 30 s schedule.
/// Varies per-hop queue depth and the primary mix (game + cross traffic
/// only, or adding a 2-BBR-vs-2-Cubic end-to-end melee), with single-hop
/// cubic cross traffic competing on every hop in all cells.
inline std::vector<SweepCell> parkinglot_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (double q : {0.5, 2.0}) {
    for (bool melee : {false, true}) {
      core::ParkingLotParams p;
      p.hops = 3;
      p.queue_bdp_mult = q;
      p.bbr_flows = melee ? 2 : 0;
      p.cubic_flows = melee ? 2 : 0;
      p.duration = std::chrono::seconds(30);
      p.tcp_start = std::chrono::seconds(5);
      p.tcp_stop = std::chrono::seconds(20);
      p.seed = seed;
      char buf[96];
      std::snprintf(buf, sizeof buf, "parkinglot3 %.1fxBDP %s", q,
                    melee ? "2bbr+2cubic melee" : "cross-only");
      cells.push_back({buf, core::parking_lot_scenario(p)});
    }
  }
  return cells;
}

/// Hybrid-fidelity fleet grid: the paper's game stream + cubic competitor
/// on an aggregation-scale 1 Gb/s bottleneck, with a fluid background
/// fleet sharing the link.  Axes: population size x churn (static vs
/// Poisson arrivals with exponential holding times), 30 s schedule.  Each
/// fleet splits across the three envelope classes (game / bulk-cubic /
/// bulk-bbr).
inline std::vector<SweepCell> fleet_grid(std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (std::uint32_t sessions : {50u, 200u}) {
    for (bool churn : {false, true}) {
      Scenario sc = base_scenario(GameSystem::kStadia, 1000.0, 2.0,
                                  CcAlgo::kCubic, seed);
      sc.duration = std::chrono::seconds(30);
      sc.tcp_start = std::chrono::seconds(5);
      sc.tcp_stop = std::chrono::seconds(20);
      const auto place = [&](net::FluidClass cls, std::uint32_t n) {
        net::FluidSourceSpec src;
        src.cls = cls;
        src.sessions = n;
        if (churn) {
          // ~12 arrivals/min against a 10 s mean hold, capped at 2x the
          // initial population.
          src.arrival_per_min = 12.0;
          src.mean_holding_s = 10.0;
          src.max_sessions = n * 2;
          src.diurnal = {0.5, 1.5, 1.0};
        }
        sc.fleet.sources.push_back(src);
      };
      place(net::FluidClass::kGameStream, sessions / 2);
      place(net::FluidClass::kBulkCubic, sessions / 4);
      place(net::FluidClass::kBulkBbr, sessions - sessions / 2 - sessions / 4);
      char buf[96];
      std::snprintf(buf, sizeof buf, "fleet%u %s Stadia 1Gb/s cubic",
                    sessions, churn ? "churn" : "static");
      cells.push_back({buf, sc});
    }
  }
  return cells;
}

/// One registered grid: its --grid name and the function that builds it.
struct NamedGrid {
  const char* name;
  std::vector<SweepCell> (*build)(std::uint64_t seed);
};

/// Every named grid, paper artifacts first.  fig3, fig4, table4 and table5
/// are four readings of the one competing grid.
inline constexpr NamedGrid kGrids[] = {
    {"table1", table1_grid},       {"fig2", fig2_grid},
    {"fig3", competing_grid},      {"fig4", competing_grid},
    {"table3", solo_grid},         {"table4", competing_grid},
    {"table5", competing_grid},    {"aqm", aqm_grid},
    {"tcp_pairs", tcp_pairs_grid}, {"controller", controller_grid},
    {"multiflow", multiflow_grid}, {"harm", harm_grid},
    {"smoke", smoke_grid},         {"sick", sick_grid},
    {"poison", poison_grid},       {"parkinglot", parkinglot_grid},
    {"fleet", fleet_grid},
};

/// Build the named grid, or nullopt for an unknown name.
inline std::optional<std::vector<SweepCell>> grid_by_name(
    const std::string& name, std::uint64_t seed) {
  for (const NamedGrid& g : kGrids) {
    if (name == g.name) return g.build(seed);
  }
  return std::nullopt;
}

/// The registered names as "table1|fig2|...", for usage lines.
inline std::string grid_names() {
  std::string out;
  for (const NamedGrid& g : kGrids) {
    if (!out.empty()) out += '|';
    out += g.name;
  }
  return out;
}

}  // namespace cgs::tools
