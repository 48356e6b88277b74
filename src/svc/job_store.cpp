#include "svc/job_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/journal.hpp"
#include "core/proc.hpp"
#include "stream/profiles.hpp"
#include "tcp/congestion_control.hpp"
#include "util/wire.hpp"

namespace cgs::svc {
namespace {

// State file: the 8-byte tag, then u32 version | u64 next_id
// | u32 job_count | per job (u64 id | u8 state | str spec | str err),
// sealed with a trailing CRC (util/wire).  Any defect discards the whole
// file.
constexpr char kStateTag[8] = {'C', 'G', 'S', 'V', 'S', 'T', '0', '1'};
constexpr std::uint32_t kStateVersion = 1;

JobState job_state_from_byte(std::uint8_t b) {
  switch (b) {
    case std::uint8_t(JobState::kQueued): return JobState::kQueued;
    case std::uint8_t(JobState::kRunning): return JobState::kRunning;
    case std::uint8_t(JobState::kDone): return JobState::kDone;
    case std::uint8_t(JobState::kFailed): return JobState::kFailed;
    case std::uint8_t(JobState::kCancelled): return JobState::kCancelled;
    default: return JobState::kFailed;  // don't trust on-disk bytes
  }
}

double parse_double(const KvMap& spec, const std::string& key, double fb) {
  const auto it = spec.find(key);
  if (it == spec.end()) return fb;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    throw std::invalid_argument("spec: bad " + key + " '" + it->second + "'");
  }
  return v;
}

std::uint64_t parse_u64(const KvMap& spec, const std::string& key,
                        std::uint64_t fb) {
  const auto it = spec.find(key);
  if (it == spec.end()) return fb;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("spec: bad " + key + " '" + it->second + "'");
  }
  return v;
}

Time seconds_to_time(double s) {
  return std::chrono::microseconds(std::llround(s * 1e6));
}

/// "job-<id>.jnl" -> id, or 0 when the name is not a job journal.
std::uint64_t job_id_from_journal_path(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.size() <= 8 || name.compare(0, 4, "job-") != 0 ||
      name.compare(name.size() - 4, 4, ".jnl") != 0) {
    return 0;
  }
  const std::string digits = name.substr(4, name.size() - 8);
  if (digits.empty()) return 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

}  // namespace

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

std::vector<core::SweepCell> inline_cells_from_spec(const KvMap& spec) {
  core::Scenario sc;

  const std::string sys = kv_get(spec, "system", "stadia");
  if (sys == "stadia") {
    sc.system = stream::GameSystem::kStadia;
  } else if (sys == "geforce") {
    sc.system = stream::GameSystem::kGeForce;
  } else if (sys == "luna") {
    sc.system = stream::GameSystem::kLuna;
  } else {
    throw std::invalid_argument("spec: bad system '" + sys +
                                "' (stadia|geforce|luna)");
  }

  const std::string cc = kv_get(spec, "cc", "cubic");
  if (cc == "cubic") {
    sc.tcp_algo = tcp::CcAlgo::kCubic;
  } else if (cc == "bbr") {
    sc.tcp_algo = tcp::CcAlgo::kBbr;
  } else if (cc == "reno") {
    sc.tcp_algo = tcp::CcAlgo::kReno;
  } else if (cc == "vegas") {
    sc.tcp_algo = tcp::CcAlgo::kVegas;
  } else if (cc == "none") {
    sc.tcp_algo.reset();
  } else {
    throw std::invalid_argument("spec: bad cc '" + cc +
                                "' (cubic|bbr|reno|vegas|none)");
  }

  const double cap = parse_double(spec, "cap_mbps", 25.0);
  sc.capacity = Bandwidth::mbps(cap);
  sc.queue_bdp_mult = parse_double(spec, "queue", 2.0);
  if (spec.count("base_rtt_ms") != 0) {
    sc.base_rtt = seconds_to_time(parse_double(spec, "base_rtt_ms", 0) / 1e3);
  }
  if (spec.count("duration_s") != 0) {
    sc.duration = seconds_to_time(parse_double(spec, "duration_s", 0));
  }
  if (spec.count("tcp_start_s") != 0) {
    sc.tcp_start = seconds_to_time(parse_double(spec, "tcp_start_s", 0));
  }
  if (spec.count("tcp_stop_s") != 0) {
    sc.tcp_stop = seconds_to_time(parse_double(spec, "tcp_stop_s", 0));
  }
  sc.seed = parse_u64(spec, "seed", 1);

  std::ostringstream label;
  label << to_string(sc.system) << ' ' << cap << "Mb/s " << sc.queue_bdp_mult
        << "xBDP " << (sc.tcp_algo ? to_string(*sc.tcp_algo) : "solo");
  return {{label.str(), sc}};
}

JobStore::JobStore(std::string dir, std::size_t max_queue)
    : dir_(std::move(dir)), max_queue_(max_queue) {}

std::string JobStore::journal_path(std::uint64_t id) const {
  return dir_ + "/job-" + std::to_string(id) + ".jnl";
}

std::string JobStore::csv_prefix(std::uint64_t id) const {
  return dir_ + "/job-" + std::to_string(id);
}

std::string JobStore::state_path() const { return dir_ + "/sweepd.state"; }

JobStore::Admission JobStore::submit(KvMap spec) {
  std::lock_guard lk(mu_);
  if (queue_.size() >= max_queue_) {
    Admission a;
    a.err = core::ProtoError::kQueueFull;
    // Advisory only: scale the hint with the backlog so a thundering herd
    // spreads out instead of re-colliding.
    a.retry_after_s = 2.0 * double(queue_.size());
    a.message = "admission queue is full (" + std::to_string(queue_.size()) +
                " jobs queued)";
    return a;
  }
  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->spec = std::move(spec);
  job->state = JobState::kQueued;
  const std::uint64_t id = job->id;
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  save_state_locked();
  Admission a;
  a.id = id;
  return a;
}

std::uint64_t JobStore::claim_next() {
  std::lock_guard lk(mu_);
  while (!queue_.empty()) {
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->state != JobState::kQueued) continue;
    it->second->state = JobState::kRunning;
    save_state_locked();
    return id;
  }
  return 0;
}

void JobStore::finish(std::uint64_t id, JobState final_state,
                      std::string error) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second->state = final_state;
  it->second->error = std::move(error);
  save_state_locked();
}

void JobStore::requeue_front(std::uint64_t id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second->state = JobState::kQueued;
  it->second->stop.store(false);
  queue_.push_front(id);
  save_state_locked();
}

core::ProtoError JobStore::cancel(std::uint64_t id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return core::ProtoError::kUnknownJob;
  Job& job = *it->second;
  if (is_terminal(job.state)) return core::ProtoError::kNone;  // idempotent
  job.cancel_requested = true;
  if (job.state == JobState::kQueued) {
    job.state = JobState::kCancelled;
    job.error = "cancelled while queued";
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    save_state_locked();
  } else {
    // Running: flip the engine's graceful-drain flag; the runner observes
    // the interruption and finishes the job as cancelled.
    job.stop.store(true);
  }
  return core::ProtoError::kNone;
}

Job* JobStore::find(std::uint64_t id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void JobStore::update_progress(std::uint64_t id,
                               const core::ProgressSnapshot& s) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second->progress = s;
  it->second->have_progress = true;
}

bool JobStore::snapshot(std::uint64_t id, JobState* state, KvMap* spec,
                        std::string* error, core::ProgressSnapshot* progress,
                        bool* have_progress) const {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const Job& job = *it->second;
  if (state != nullptr) *state = job.state;
  if (spec != nullptr) *spec = job.spec;
  if (error != nullptr) *error = job.error;
  if (progress != nullptr) *progress = job.progress;
  if (have_progress != nullptr) *have_progress = job.have_progress;
  return true;
}

std::string JobStore::status_text() const {
  std::lock_guard lk(mu_);
  std::ostringstream os;
  os << jobs_.size() << " job" << (jobs_.size() == 1 ? "" : "s") << ", "
     << queue_.size() << " queued\n";
  for (const auto& [id, job] : jobs_) {
    os << "job " << id << "  " << to_string(job->state);
    if (job->have_progress) {
      os << "  " << job->progress.finished << "/" << job->progress.total
         << " runs";
      if (job->progress.failed > 0) {
        os << " (" << job->progress.failed << " failed)";
      }
    }
    const std::string grid = kv_get(job->spec, "grid");
    if (!grid.empty()) os << "  grid=" << grid;
    if (!job->error.empty()) os << "  [" << job->error << "]";
    os << "\n";
  }
  return os.str();
}

std::size_t JobStore::queued_count() const {
  std::lock_guard lk(mu_);
  return queue_.size();
}

void JobStore::save_state() const {
  std::lock_guard lk(mu_);
  save_state_locked();
}

void JobStore::save_state_locked() const {
  util::wire::Writer w;
  w.raw(kStateTag, sizeof kStateTag).u32(kStateVersion).u64(next_id_);
  w.u32(std::uint32_t(jobs_.size()));
  for (const auto& [id, job] : jobs_) {
    w.u64(id).u8(std::uint8_t(job->state)).str(encode_kv(job->spec));
    w.str(job->error);
  }
  const std::vector<unsigned char> buf = w.seal().take();

  // tmp + rename: readers (the next incarnation) see the old state or the
  // new state, never a torn one.  Failures are swallowed — persistence is
  // best-effort on top of the journals, which carry the real results.
  const std::string tmp = state_path() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return;
  const bool wrote = core::proc::write_exact(fd, buf.data(), buf.size());
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (wrote && synced) {
    (void)::rename(tmp.c_str(), state_path().c_str());
  } else {
    (void)::unlink(tmp.c_str());
  }
}

std::vector<std::uint64_t> JobStore::recover() {
  std::lock_guard lk(mu_);

  // 1. The state file, if intact.  Anything wrong with it — missing,
  // short, bad tag/version/CRC, truncated record — discards it entirely;
  // the journal rescan below rebuilds what matters.
  do {
    std::vector<unsigned char> buf;
    if (!core::proc::read_file(state_path(), buf)) break;
    if (!util::wire::sealed(buf.data(), buf.size())) break;
    util::wire::Reader r(buf.data(), buf.size() - 4);
    char tag[sizeof kStateTag];
    r.raw(tag, sizeof tag);
    if (std::memcmp(tag, kStateTag, sizeof kStateTag) != 0) break;
    if (r.u32() != kStateVersion) break;
    const std::uint64_t next_id = r.u64();
    const std::uint32_t count = r.u32();
    std::map<std::uint64_t, std::unique_ptr<Job>> loaded;
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      auto job = std::make_unique<Job>();
      job->id = r.u64();
      job->state = job_state_from_byte(r.u8());
      job->spec = parse_kv(r.str());
      job->error = r.str();
      if (r.ok() && job->id != 0) loaded.emplace(job->id, std::move(job));
    }
    if (!r.ok()) break;
    jobs_ = std::move(loaded);
    next_id_ = std::max<std::uint64_t>(next_id, 1);
  } while (false);

  // 2. Journal rescan: journals are the ground truth, so any job-<id>.jnl
  // the state file does not know about (state file lost, or the crash beat
  // the save) is re-admitted with the spec recovered from its provenance
  // note.
  try {
    for (const core::JournalFileInfo& info :
         core::scan_journal_dir(dir_)) {
      const std::uint64_t id = job_id_from_journal_path(info.path);
      if (id == 0 || jobs_.count(id) != 0) continue;
      auto job = std::make_unique<Job>();
      job->id = id;
      job->spec = parse_kv(info.meta.note);
      job->state = JobState::kQueued;
      jobs_.emplace(id, std::move(job));
    }
  } catch (const core::JournalError&) {
    // Directory unreadable: nothing to rescan; the state file (if any)
    // already loaded.
  }

  // 3. Re-queue every non-terminal job oldest-first: an interrupted
  // running job resumes from its journal exactly like a queued one.
  queue_.clear();
  std::vector<std::uint64_t> resumed;
  for (auto& [id, job] : jobs_) {
    next_id_ = std::max(next_id_, id + 1);
    if (is_terminal(job->state)) continue;
    if (job->state == JobState::kRunning) resumed.push_back(id);
    job->state = JobState::kQueued;
    job->stop.store(false);
    job->cancel_requested = false;
    queue_.push_back(id);  // jobs_ is id-ordered: oldest first
  }
  save_state_locked();
  return resumed;
}

}  // namespace cgs::svc
