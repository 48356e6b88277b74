// cgs_perfbench: runs one workload of the end-to-end benchmark and prints
// its metrics, human-readable first and as one JSON object on the last line.
//
//   cgs_perfbench --workload paper_cells|fig3_grid|multihop_tcp --seed N
//                 --seconds S --trace 0|1 --refs FILE --scratch DIR
//   cgs_perfbench --workload W --refs FILE --record-refs
//
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Shortest decimal form that reads back as the same double.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_end_to_end(const Result& r) {
  std::printf("\n  %-14s %14s  %-6s %14s  %s\n", "metric", "value", "unit",
              "(measured)", "what");
  for (const auto& [name, value] : r.metrics) {
    const MetricDef& m = metric(name);
    const auto raw = r.measured.find(name);
    std::string raw_text;
    if (raw != r.measured.end()) {
      raw_text.append("(").append(num(raw->second)).append(")");
    }
    std::printf("  %-14s %14.6g  %-6s %14s  %s\n", m.name, value, m.unit,
                raw_text.c_str(), m.what);
  }
  std::printf("\n  host kernel: %.6f s median, reference %.3f s; times above "
              "are scaled by %.4f\n",
              r.host_kernel_s, kHostKernelRefS, r.scale);
}

void print_per_layer(const Result& r) {
  std::printf("\n  %-30s %14s  %-5s  %-16s %s\n", "per-layer metric", "value",
              "unit", "should move", "(end-to-end value, untraced passes)");
  for (const auto& [name, value] : r.metrics) {
    const MetricDef& m = metric(name);
    const auto e2e = r.end_to_end.find(std::string(m.moves).substr(
        0, std::string(m.moves).find(',')));
    std::string moved = "-";
    if (e2e != r.end_to_end.end()) {
      moved = e2e->first + " = " + num(e2e->second) + " " +
              metric(e2e->first).unit;
    }
    std::printf("  %-30s %14.6g  %-5s  %-16s %s\n", m.name, value, m.unit,
                m.moves, moved.c_str());
  }
  const double wall = r.measured.at("grid_s");
  const double overhead = r.metrics.at("trace.overhead_s");
  std::printf("\n  tracing overhead: traced pass wall - untraced pass wall = "
              "%.4f s (%.2f%% of %.3f s)\n",
              overhead, 100.0 * overhead / wall, wall);

  std::printf("\n  per-cell breakdown (last traced pass; counts are exact)\n");
  std::printf("  %-34s %7s %7s %9s %8s %6s %7s %6s %4s %7s %6s %6s %6s %6s\n",
              "cell", "run_s", "self_s", "events", "link_pkt", "drops",
              "acks", "retx", "rto", "s_recv", "s_lost", "frames", "ctl",
              "fluid");
  for (const CellRow& c : r.cells) {
    const Counts& k = c.counts;
    std::printf(
        "  %-34s %7.3f %7.3f %9llu %8llu %6llu %7llu %6llu %4llu %7llu %6llu "
        "%6llu %6llu %6llu\n",
        c.label.c_str(), c.run_s, c.run_self_s,
        (unsigned long long)k.events, (unsigned long long)k.link_pkts,
        (unsigned long long)k.drops, (unsigned long long)k.acks,
        (unsigned long long)k.retransmits, (unsigned long long)k.rtos,
        (unsigned long long)k.pkts_recv, (unsigned long long)k.pkts_lost,
        (unsigned long long)k.frames_presented,
        (unsigned long long)k.controller_calls,
        (unsigned long long)k.session_ticks);
  }
}

/// Metric names and units need no JSON escaping: names are restricted to
/// [A-Za-z0-9_.-] (checked by the self-test) and units are literals.
void print_json(const Result& r, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", r.tally.attempted, r.tally.failed);
  const char* sep = "";
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep,
                name.c_str(), num(value).c_str(), metric(name).unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: cgs_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --refs FILE --scratch DIR\n"
               "       cgs_perfbench --workload W --refs FILE --record-refs\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() == "1";
      } else if (a == "--refs") {
        o.refs_path = value();
      } else if (a == "--scratch") {
        o.scratch_dir = value();
      } else if (a == "--record-refs") {
        record = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cgs_perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (o.workload.empty() || o.refs_path.empty()) return usage();

#ifndef NDEBUG
  std::fprintf(stderr, "cgs_perfbench: refusing an assert-enabled build\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "cgs_perfbench: refusing a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  o.threads = nproc();

  try {
    if (record) {
      record_references(o);
      return 0;
    }
    if (o.scratch_dir.empty()) return usage();
    std::filesystem::create_directories(o.scratch_dir);
    std::printf("cgs_perfbench %s: seed %llu (scenario seed %llu), %.0f s, "
                "trace %d, %d threads, %s build, %s\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                (unsigned long long)scenario_seed(o.seed), o.seconds,
                int(o.trace), o.threads, PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER);
    const Result r = run_workload(o);
    std::printf("  %d passes of %zu cells; fail_frac = %.6g (%ld of %ld jobs "
                "failed)\n",
                r.passes, r.cells_per_pass, r.tally.fail_frac(),
                r.tally.failed, r.tally.attempted);
    bool correct = r.tally.failed == 0 && r.problems.empty();
    for (const std::string& p : r.problems) {
      std::printf("  PROBLEM: %s\n", p.c_str());
    }
    for (const auto& [name, value] : r.metrics) {
      if (!std::isfinite(value)) {
        std::printf("  PROBLEM: %s is not finite\n", name.c_str());
        correct = false;
      }
    }
    if (o.trace) {
      print_per_layer(r);
    } else {
      print_end_to_end(r);
    }
    std::printf("\n");
    print_json(r, correct);
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cgs_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
