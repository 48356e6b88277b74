// Helpers of the end-to-end benchmark: order statistics, in-memory spans,
// the delegating rate controller that traces a run from outside, the
// reference-hash table and the metric catalogue.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "stream/controller.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- order statistics --------------------------------------------------------

/// Percentile `p` in [0, 100] with linear interpolation between closest
/// ranks (numpy's default); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Median: the 50th percentile (mean of the middle pair for even sizes).
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

// --- spans -------------------------------------------------------------------

/// One timed interval.  Spans form a tree through `parent` (0 = root).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;  // steady_clock, relative to SpanLog::origin
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;  // small per-log index of the recording thread

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A span's self time: its duration minus the part of its interval that
/// the union of its direct children (spans whose parent is `s.id`) covers.
[[nodiscard]] std::int64_t self_time_ns(const Span& s,
                                        const std::vector<Span>& all);

/// Where finished spans from every thread end up.  Ids are unique across
/// threads; spans are merged in batches under the mutex.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  [[nodiscard]] std::uint32_t next_id() { return next_id_.fetch_add(1); }

  /// Append a batch recorded by the calling thread.
  void merge(std::vector<Span>&& batch);

  /// Everything merged so far, in merge order.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated dump: id, parent, thread, name, start_ns, end_ns.
  void write_tsv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// Per-thread span buffer: open/close spans locally, merge on destruction.
class Tracer {
 public:
  explicit Tracer(SpanLog& log) : log_(log) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer() { log_.merge(std::move(spans_)); }

  /// Open a span; returns its index in this buffer.
  std::size_t open(const char* name, std::uint32_t parent) {
    spans_.push_back({log_.next_id(), parent, name, log_.now_ns(), 0, 0});
    return spans_.size() - 1;
  }
  void close(std::size_t index) { spans_[index].end_ns = log_.now_ns(); }
  [[nodiscard]] std::uint32_t id(std::size_t index) const {
    return spans_[index].id;
  }

 private:
  SpanLog& log_;
  std::vector<Span> spans_;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tr, const char* name, std::uint32_t parent)
      : tr_(tr), index_(tr.open(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tr_.close(index_); }
  [[nodiscard]] std::uint32_t id() const { return tr_.id(index_); }

 private:
  Tracer& tr_;
  std::size_t index_;
};

/// Delegating RateController: forwards every call to `inner` unchanged and
/// records a "stream.controller.on_feedback" span around each on_feedback.
/// The feedback spans are filed under `*feedback_parent` when given (the
/// caller's Testbed::run span); otherwise the controller records its own
/// lifetime as a "core.sweep.job" span under `job_parent` and files them
/// there.  Constructed by Scenario::controller_override inside the Testbed
/// and destroyed with it, so inside run_sweep that lifetime brackets each
/// job's Testbed.
class TracedController final : public cgs::stream::RateController {
 public:
  TracedController(std::unique_ptr<cgs::stream::RateController> inner,
                   SpanLog& log, std::uint32_t job_parent,
                   const std::uint32_t* feedback_parent);
  ~TracedController() override;
  TracedController(const TracedController&) = delete;
  TracedController& operator=(const TracedController&) = delete;

  cgs::stream::ControlDecision on_feedback(
      const cgs::stream::FeedbackSnapshot& fb) override;
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] cgs::stream::ControlDecision current() const override {
    return inner_->current();
  }

 private:
  std::unique_ptr<cgs::stream::RateController> inner_;
  Tracer tracer_;
  std::size_t job_ = 0;
  bool has_job_ = false;
  const std::uint32_t* feedback_parent_;
};

// --- reference hashes --------------------------------------------------------

/// trace_hash references per (cell label, scenario seed) of one workload,
/// stored as "label<TAB>seed<TAB>hash-hex" lines.
class RefTable {
 public:
  /// Load `path`; a missing file yields an empty table (every lookup then
  /// misses, which counts as a failure).
  static RefTable load(const std::string& path);

  /// True when a reference exists and equals `hash`.
  [[nodiscard]] bool matches(const std::string& label, std::uint64_t seed,
                             std::uint64_t hash) const;

  void put(const std::string& label, std::uint64_t seed, std::uint64_t hash) {
    refs_[{label, seed}] = hash;
  }
  /// Rewrite `path` with every reference, sorted by (label, seed).
  void save(const std::string& path) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> refs_;
};

/// Attempted / failed job counts behind fail_frac.
struct Tally {
  long attempted = 0;
  long failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double fail_frac() const {
    return attempted == 0 ? 0.0 : double(failed) / double(attempted);
  }
};

// --- metric catalogue --------------------------------------------------------

/// One metric the benchmark prints: end-to-end ones in untraced runs,
/// per-layer ones in traced runs.  `moves` names the end-to-end metric a
/// change in this one should show up in.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* what;
  const char* moves;
};

[[nodiscard]] const std::vector<MetricDef>& metric_catalogue();

/// The catalogue entry named `name`; throws std::out_of_range if none.
[[nodiscard]] const MetricDef& metric(std::string_view name);

/// True when `name` is non-empty and made only of [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

// --- host speed ----------------------------------------------------------------

/// Wall seconds of one run, on the calling thread, of a fixed reference
/// kernel that shares no code with the program under test: a binary-heap
/// event loop updating a 4 MiB table, the access pattern of a
/// discrete-event simulator.
[[nodiscard]] double host_kernel_s();

/// A round value of host_kernel_s on the reference host (4-vCPU 2.0 GHz
/// Xeon VM, where it reads 13-30 ms as the host's speed drifts).
/// Times are reported as measured x kHostKernelRefS / (the run's median
/// host_kernel_s): seconds on a host whose speed makes the kernel take
/// exactly this long.
inline constexpr double kHostKernelRefS = 0.025;

}  // namespace perfbench
