#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * double(v.size() - 1);
  const auto lo = std::size_t(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

std::int64_t self_time_ns(const Span& s, const std::vector<Span>& all) {
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& c : all) {
    if (c.parent != s.id || c.id == s.id) continue;
    const std::int64_t a = std::max(c.start_ns, s.start_ns);
    const std::int64_t b = std::min(c.end_ns, s.end_ns);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t reach = s.start_ns;  // end of the union so far
  for (const auto& [a, b] : kids) {
    if (b <= reach) continue;
    covered += b - std::max(a, reach);
    reach = b;
  }
  return s.duration_ns() - covered;
}

void SpanLog::merge(std::vector<Span>&& batch) {
  std::lock_guard lk(mu_);
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), std::uint32_t(threads_.size()));
  for (Span& s : batch) {
    s.thread = it->second;
    spans_.push_back(s);
  }
  batch.clear();
}

void SpanLog::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  out << "id\tparent\tthread\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << s.id << '\t' << s.parent << '\t' << s.thread << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

TracedController::TracedController(
    std::unique_ptr<cgs::stream::RateController> inner, SpanLog& log,
    std::uint32_t job_parent, const std::uint32_t* feedback_parent)
    : inner_(std::move(inner)),
      tracer_(log),
      feedback_parent_(feedback_parent) {
  if (feedback_parent_ == nullptr) {
    job_ = tracer_.open("core.sweep.job", job_parent);
    has_job_ = true;
  }
}

TracedController::~TracedController() {
  if (has_job_) tracer_.close(job_);
}

cgs::stream::ControlDecision TracedController::on_feedback(
    const cgs::stream::FeedbackSnapshot& fb) {
  const std::uint32_t parent =
      feedback_parent_ != nullptr ? *feedback_parent_ : tracer_.id(job_);
  const std::size_t span = tracer_.open("stream.controller.on_feedback", parent);
  const cgs::stream::ControlDecision d = inner_->on_feedback(fb);
  tracer_.close(span);
  return d;
}

RefTable RefTable::load(const std::string& path) {
  RefTable t;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto a = line.find('\t');
    const auto b = line.find('\t', a == std::string::npos ? a : a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    t.put(line.substr(0, a), std::stoull(line.substr(a + 1, b - a - 1)),
          std::stoull(line.substr(b + 1), nullptr, 16));
  }
  return t;
}

bool RefTable::matches(const std::string& label, std::uint64_t seed,
                       std::uint64_t hash) const {
  const auto it = refs_.find({label, seed});
  return it != refs_.end() && it->second == hash;
}

void RefTable::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write references " + path);
  for (const auto& [key, hash] : refs_) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, hash);
    out << key.first << '\t' << key.second << '\t' << hex << '\n';
  }
}

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> kMetrics = {
      {"cell_s", "s",
       "median wall seconds per cell: validate, Testbed, run, trace_hash "
       "(fig3_grid: run_sweep wall x workers / jobs)",
       "-"},
      {"grid_s", "s",
       "median wall seconds of one pass over the workload's cells "
       "(fig3_grid: run_sweep call to write_sweep_csvs done)",
       "-"},
      {"setup_s", "s",
       "median wall seconds of one pass's set-up: scenarios, validate, "
       "Testbed construction (fig3_grid: plus journal creation)",
       "-"},
      {"peak_rss_mb", "MB", "peak resident set size of the process",
       "-"},

      {"sim.events", "count",
       "Simulator::processed_events, summed over one pass", "cell_s"},
      {"sim.ns_per_event", "ns", "core.testbed.run_s / sim.events",
       "cell_s"},
      {"net.link_pkts", "count",
       "Link::packets_delivered over every link, one pass", "cell_s"},
      {"net.ns_per_link_pkt", "ns",
       "core.testbed.run_s / net.link_pkts", "cell_s"},
      {"net.drops", "count",
       "Queue::drops_total over every link, one pass", "none (behaviour)"},
      {"net.fluid.session_ticks", "count",
       "RunTrace fleet.session_ticks, one pass", "cell_s, setup_s"},
      {"tcp.acks", "count", "TcpReceiver::acks_sent over flows",
       "cell_s"},
      {"tcp.retransmits", "count", "TcpSender::retransmits_total",
       "none (behaviour)"},
      {"tcp.rtos", "count", "TcpSender::rto_total",
       "none (behaviour)"},
      {"stream.pkts_recv", "count",
       "StreamReceiver::packets_received", "cell_s"},
      {"stream.pkts_lost", "count", "StreamReceiver::packets_lost",
       "none (behaviour)"},
      {"stream.frames_presented", "count",
       "DisplayModel::presented_total", "cell_s"},
      {"stream.controller.calls", "count",
       "RateController::on_feedback calls (delegating controller)",
       "cell_s"},
      {"stream.controller.ns_per_call", "ns",
       "median on_feedback span", "cell_s"},
      {"core.testbed.build_ms", "ms",
       "median Scenario::validate + Testbed::Testbed per cell", "setup_s"},
      {"core.testbed.run_s", "s",
       "Testbed::run spans summed over one pass", "cell_s"},
      {"core.testbed.run_self_s", "s",
       "Testbed::run self time (controller spans removed), one pass",
       "cell_s"},
      {"core.metrics.hash_ms", "ms", "median trace_hash call",
       "cell_s, grid_s"},
      {"core.collectors.trace_kb", "KB",
       "mean serialize_trace size per cell", "grid_s, peak_rss_mb"},
      {"core.journal.serialize_ms", "ms",
       "median serialize_trace call", "grid_s"},
      {"core.journal.append_ms", "ms",
       "median JournalWriter::append call, fsync on", "grid_s"},
      {"core.journal.mb", "MB", "journal size for one pass",
       "grid_s"},
      {"core.aggregate.add_ms", "ms",
       "median ConditionAccumulator::add call", "grid_s"},
      {"core.report.csv_ms", "ms", "median write_sweep_csvs call",
       "grid_s"},
      {"core.sweep.job_p50_s", "s", "median job span", "grid_s"},
      {"core.sweep.busy_frac", "frac",
       "sum of job spans / (workers x pass wall)", "grid_s"},
      {"core.sweep.tail_s", "s",
       "pass end - first moment a worker ran out of jobs", "grid_s"},
      {"trace.overhead_s", "s",
       "traced pass wall - untraced pass wall", "none (instrument)"},
  };
  return kMetrics;
}

const MetricDef& metric(std::string_view name) {
  for (const MetricDef& m : metric_catalogue()) {
    if (name == m.name) return m;
  }
  throw std::out_of_range("unknown metric " + std::string(name));
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

/// The reference kernel: `steps` events of 4096 actors, each pop updating a
/// pseudo-random slot of a 4 MiB table and rescheduling its actor.
std::uint64_t host_kernel(std::uint32_t steps) {
  std::vector<std::uint64_t> table(std::size_t(1) << 19);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = i * 0x9e3779b97f4a7c15ull;
  }
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, actor)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (std::uint32_t a = 0; a < 4096; ++a) queue.push({next() % 100000, a});
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < steps; ++i) {
    const Event e = queue.top();
    queue.pop();
    std::uint64_t& slot =
        table[(e.second * 2654435761ull + e.first) & (table.size() - 1)];
    slot = slot * 6364136223846793005ull + e.first;
    sum += slot >> 7;
    queue.push({e.first + 1 + (next() & 1023), e.second});
  }
  return sum;
}

/// Keeps the kernel's result alive so the compiler cannot drop the work.
volatile std::uint64_t g_kernel_sink = 0;

}  // namespace

double host_kernel_s() {
  const auto t0 = Clock::now();
  g_kernel_sink = host_kernel(100'000);
  return seconds_between(t0, Clock::now());
}

}  // namespace perfbench
