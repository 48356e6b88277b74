// Self-test of the benchmark's helpers.  Run through ctest in the perfbench
// build, or directly: perfbench_selftest path/to/BENCHMARK.json
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "cgstream.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_median_and_percentile() {
  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3.0}) == 3.0, "median of one value");
  check(median({5.0, 1.0, 3.0}) == 3.0, "median of an odd sample");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even sample");
  const std::vector<double> v = {10, 20, 30, 40, 50};
  check(percentile(v, 0) == 10 && percentile(v, 100) == 50, "extremes");
  check(near(percentile(v, 25), 20.0), "p25 hits a rank");
  check(near(percentile(v, 90), 46.0), "p90 interpolates");
  check(near(percentile({1.0, 2.0}, 50), 1.5), "p50 interpolates");
}

Span span(std::uint32_t id, std::uint32_t parent, std::int64_t a,
          std::int64_t b) {
  return {id, parent, "s", a, b, 0};
}

void test_self_time() {
  const Span root = span(1, 0, 0, 100);
  check(self_time_ns(root, {root}) == 100, "no children: all self time");
  // Children [10,30) and [20,50) overlap: together they cover 40.
  check(self_time_ns(root, {root, span(2, 1, 10, 30), span(3, 1, 20, 50)}) ==
            60,
        "overlapping children are counted once");
  // A child sticking out of the parent is clipped to it.
  check(self_time_ns(root, {span(2, 1, 90, 130)}) == 90,
        "children are clipped to the parent");
  // Grandchildren and other trees do not count.
  check(self_time_ns(root, {span(2, 1, 0, 10), span(3, 2, 10, 90),
                            span(4, 9, 0, 100)}) == 90,
        "only direct children count");
  check(self_time_ns(root, {span(2, 1, 0, 50), span(3, 1, 50, 100)}) == 0,
        "adjacent children cover everything");
}

void test_reference_hashes() {
  const std::string path = "perfbench_selftest_refs.tsv";
  RefTable refs;
  refs.put("Stadia 25Mb/s 2.0xBDP cubic", 3, 0xabcdef0123456789ull);
  refs.save(path);
  const RefTable back = RefTable::load(path);
  std::filesystem::remove(path);

  Tally t;
  check_hash(back, "Stadia 25Mb/s 2.0xBDP cubic", 3, 0xabcdef0123456789ull, t);
  check(t.attempted == 1 && t.failed == 0, "a matching hash passes");
  check_hash(back, "Stadia 25Mb/s 2.0xBDP cubic", 3, 0xabcdef0123456788ull, t);
  check(t.failed == 1 && near(t.fail_frac(), 0.5),
        "a wrong hash counts in fail_frac");
  check_hash(back, "Stadia 25Mb/s 2.0xBDP cubic", 4, 0xabcdef0123456789ull, t);
  check(t.failed == 2, "a missing reference counts as failed");
}

void test_metric_names(const std::string& benchmark_json) {
  std::ifstream in(benchmark_json);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  check(!text.empty(), "BENCHMARK.json is readable at " + benchmark_json);
  std::set<std::string> seen;
  for (const MetricDef& m : metric_catalogue()) {
    check(valid_metric_name(m.name), std::string("bad metric name ") + m.name);
    check(seen.insert(m.name).second, std::string("duplicate ") + m.name);
    const std::string entry = std::string("{\"name\": \"") + m.name +
                              "\", \"unit\": \"" + m.unit + "\"";
    check(text.find(entry) != std::string::npos,
          std::string("BENCHMARK.json lacks ") + entry);
  }
  check(!valid_metric_name("") && !valid_metric_name("a b") &&
            !valid_metric_name("x/y"),
        "names outside [A-Za-z0-9_.-] are refused");
}

void test_workloads() {
  check(workload_cells("paper_cells", 1).size() == 6, "six paper cells");
  check(workload_cells("fig3_grid", 5).size() == 54, "54 Fig 3 cells");
  const auto multihop = workload_cells("multihop_tcp", 1);
  check(multihop.size() == 1, "one multihop cell");
  for (const auto& f : multihop[0].scenario.effective_flows()) {
    check(f.kind != cgs::core::FlowKind::kGameStream,
          "multihop_tcp has no game stream");
  }
  check(host_kernel_s() > 0.0, "the host kernel takes time");
  for (std::uint64_t s : {0ull, 1ull, 15ull, 16ull, 1ull << 40}) {
    check(scenario_seed(s) >= 1 && scenario_seed(s) <= kSeedSpan,
          "scenario seeds stay within the recorded span");
  }
}

void test_traced_controller_is_transparent() {
  cgs::core::SweepCell cell = workload_cells("paper_cells", 2)[1];
  cell.scenario.duration = std::chrono::seconds(20);
  cell.scenario.tcp_start = std::chrono::seconds(5);
  cell.scenario.tcp_stop = std::chrono::seconds(15);
  const auto plain =
      cgs::core::trace_hash(cgs::core::Testbed(cell.scenario).run());

  SpanLog log;
  std::uint32_t parent = 7;
  const auto sys = cell.scenario.system;
  cell.scenario.controller_override = [&log, &parent, sys] {
    return std::make_unique<TracedController>(
        cgs::stream::make_controller(sys), log, 0, &parent);
  };
  const auto traced =
      cgs::core::trace_hash(cgs::core::Testbed(cell.scenario).run());
  check(plain == traced, "the delegating controller leaves the hash alone");
  std::size_t calls = 0;
  for (const Span& s : log.spans()) {
    calls += s.parent == parent ? 1 : 0;
  }
  check(calls > 100, "feedback calls are recorded under the given parent");
}

}  // namespace

int main(int argc, char** argv) {
  test_median_and_percentile();
  test_self_time();
  test_reference_hashes();
  test_metric_names(argc > 1 ? argv[1] : "BENCHMARK.json");
  test_workloads();
  test_traced_controller_is_transparent();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
