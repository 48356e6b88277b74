#include "svc/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/journal.hpp"
#include "core/report.hpp"

namespace cgs::svc {
namespace {

[[noreturn]] void server_error(const char* op) {
  throw std::runtime_error(std::string("sweepd: ") + op + ": " +
                           std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::uint64_t parse_id(const KvMap& kv, const std::string& key) {
  const std::string v = kv_get(kv, key);
  if (v.empty()) return 0;
  char* end = nullptr;
  const unsigned long long id = std::strtoull(v.c_str(), &end, 10);
  return (end == v.c_str() || *end != '\0') ? 0 : id;
}

}  // namespace

/// One connected client.  Owned by the server thread exclusively.
struct Server::Session {
  explicit Session(int fd_in, std::size_t out_cap)
      : fd(fd_in), out(out_cap) {}
  int fd;
  FrameParser parser;
  SendBuffer out;
  bool closing = false;        // flush out, then close (bad frame / drain)
  bool watching = false;
  std::uint64_t watch_job = 0;
  std::uint64_t sent_seq = 0;  // last snapshot seq shipped on this watch
  bool done_sent = false;      // terminal frame delivered for this watch
};

std::vector<core::SweepCell> default_resolver(const KvMap& spec) {
  if (spec.count("grid") != 0) return {};  // no named grids at this layer
  return inline_cells_from_spec(spec);
}

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), store_(cfg_.dir, cfg_.max_queue) {
  if (!cfg_.resolver) cfg_.resolver = default_resolver;
}

Server::~Server() {
  if (runner_thread_.joinable()) {
    {
      std::lock_guard lk(runner_mu_);
      draining_ = true;
    }
    runner_cv_.notify_all();
    runner_thread_.join();
  }
  for (auto& s : sessions_) ::close(s->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

int Server::listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) server_error("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
  addr.sin_port = htons(std::uint16_t(cfg_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    server_error("bind");
  }
  if (::listen(listen_fd_, 16) != 0) server_error("listen");
  set_nonblocking(listen_fd_);

  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    server_error("getsockname");
  }
  port_ = int(ntohs(addr.sin_port));

  if (::pipe(wake_fds_) != 0) server_error("pipe");
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
  return port_;
}

void Server::wake() {
  const unsigned char b = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(wake_fds_[1], &b, 1);
}

void Server::request_drain() {
  // Only async-signal-safe operations: an atomic store and a write().
  drain_flag_.store(true, std::memory_order_release);
  const unsigned char b = 1;
  (void)!::write(wake_fds_[1], &b, 1);
}

void Server::run() {
  if (listen_fd_ < 0) {
    throw std::logic_error("sweepd: run() before listen()");
  }
  // Restart recovery: every non-terminal job in the state directory goes
  // back on the queue and resumes from its journal.
  (void)store_.recover();

  runner_done_.store(false);
  runner_thread_ = std::thread([this] { runner_main(); });

  std::vector<pollfd> pfds;
  for (;;) {
    if (drain_flag_.load(std::memory_order_acquire) && !draining_) {
      begin_drain();
    }
    if (draining_ && runner_done_.load(std::memory_order_acquire)) {
      // In-flight work is journaled and the queue persisted; flush what we
      // can right now and exit.  (Watchers see the socket close and
      // reconnect to the next incarnation.)
      store_.save_state();
      for (auto& s : sessions_) handle_writable(*s);
      break;
    }

    pfds.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    if (!draining_) pfds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t first_client = pfds.size();
    for (auto& s : sessions_) {
      short ev = 0;
      // Read gating: an over-cap session gets no POLLIN, so a stalled
      // subscriber cannot pump requests that mint new control frames.
      if (!s->closing && !s->out.over_cap()) ev |= POLLIN;
      if (!s->out.empty()) ev |= POLLOUT;
      pfds.push_back({s->fd, ev, 0});
    }

    const int pr = ::poll(pfds.data(), nfds_t(pfds.size()),
                          int(cfg_.snapshot_ms));
    if (pr < 0) {
      if (errno == EINTR) continue;
      server_error("poll");
    }

    if ((pfds[0].revents & POLLIN) != 0) {
      unsigned char drainbuf[64];
      while (::read(wake_fds_[0], drainbuf, sizeof drainbuf) > 0) {}
    }
    // A drain requested while we slept in poll() must win over everything
    // the same round reports: a request that reached us after
    // request_drain() returned is refused, never admitted.
    if (drain_flag_.load(std::memory_order_acquire) && !draining_) {
      begin_drain();
    }
    // Sessions accepted below have no pollfd this round; they join the next.
    const std::size_t polled = pfds.size() - first_client;
    if (!draining_ && (pfds[first_client - 1].revents & POLLIN) != 0) {
      accept_clients();
    }
    for (std::size_t i = 0; i < polled; ++i) {
      const short re = pfds[first_client + i].revents;
      Session& s = *sessions_[i];
      if ((re & POLLOUT) != 0) handle_writable(s);
      if ((re & POLLIN) != 0) handle_readable(s);
      if ((re & (POLLERR | POLLHUP)) != 0 && s.out.empty()) s.closing = true;
    }

    push_snapshots();

    // Reap sessions that are closed or have flushed their goodbye.
    for (std::size_t i = 0; i < sessions_.size();) {
      Session& s = *sessions_[i];
      if (s.fd < 0 || (s.closing && s.out.empty())) {
        if (s.fd >= 0) ::close(s.fd);
        sessions_.erase(sessions_.begin() + std::ptrdiff_t(i));
      } else {
        ++i;
      }
    }
  }

  runner_thread_.join();
  for (auto& s : sessions_) ::close(s->fd);
  sessions_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::begin_drain() {
  {
    // Under the runner mutex: the runner reads draining_ in its wait
    // predicate.
    std::lock_guard lk(runner_mu_);
    draining_ = true;
  }
  // Gracefully stop the in-flight sweep: its in-flight (cell, seed) jobs
  // finish and are journaled, the rest stays queued for the next
  // incarnation.
  const std::uint64_t cur = current_job_.load(std::memory_order_acquire);
  if (cur != 0) {
    if (Job* job = store_.find(cur)) job->stop.store(true);
  }
  runner_cv_.notify_all();
}

void Server::accept_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN and real errors alike: try again next tick
    }
    set_nonblocking(fd);
    sessions_.push_back(
        std::make_unique<Session>(fd, cfg_.client_buffer_bytes));
  }
}

void Server::send_frame(Session& s, MsgType type, std::string_view payload,
                        bool droppable) {
  (void)s.out.push(encode_frame(type, payload), droppable);
}

void Server::send_error(Session& s, core::ProtoError code,
                        std::string_view msg, double retry_after_s) {
  const auto payload = encode_error(code, msg, retry_after_s);
  (void)s.out.push(
      encode_frame(MsgType::kError,
                   std::string_view(
                       reinterpret_cast<const char*>(payload.data()),
                       payload.size())),
      false);
}

void Server::handle_readable(Session& s) {
  unsigned char chunk[16 * 1024];
  for (;;) {
    const ssize_t r = ::recv(s.fd, chunk, sizeof chunk, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      ::close(s.fd);
      s.fd = -1;
      return;
    }
    if (r == 0) {  // peer closed; flush anything pending, then reap
      s.closing = true;
      break;
    }
    s.parser.feed(chunk, std::size_t(r));
    if (std::size_t(r) < sizeof chunk) break;
  }

  Frame f;
  for (;;) {
    const FrameParser::Status st = s.parser.next(f);
    if (st == FrameParser::Status::kNeedMore) break;
    if (st == FrameParser::Status::kBad) {
      // Framing is lost: one structured goodbye, then close.
      send_error(s, core::ProtoError::kBadFrame, s.parser.bad_reason());
      s.closing = true;
      break;
    }
    dispatch(s, f);
    if (s.closing) break;
  }
}

void Server::handle_writable(Session& s) {
  if (s.fd < 0) return;
  for (;;) {
    std::size_t n = 0;
    const unsigned char* p = s.out.front(n);
    if (n == 0) return;
    const ssize_t w = ::send(s.fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      ::close(s.fd);  // broken pipe etc.: the session is gone
      s.fd = -1;
      return;
    }
    s.out.consume(std::size_t(w));
  }
}

void Server::dispatch(Session& s, const Frame& f) {
  switch (f.type) {
    case MsgType::kSubmit: handle_submit(s, f); return;
    case MsgType::kStatus:
      send_frame(s, MsgType::kReport, store_.status_text());
      return;
    case MsgType::kWatch: handle_watch(s, f); return;
    case MsgType::kCancel: {
      const std::uint64_t id = parse_id(parse_kv(f.text()), "job");
      if (id == 0) {
        send_error(s, core::ProtoError::kBadRequest, "cancel: missing job=");
        return;
      }
      const core::ProtoError err = store_.cancel(id);
      if (err != core::ProtoError::kNone) {
        send_error(s, err, "cancel: no such job " + std::to_string(id));
        return;
      }
      send_frame(s, MsgType::kReport,
                 "cancel requested for job " + std::to_string(id) + "\n");
      wake();
      return;
    }
    case MsgType::kDrain:
      send_frame(s, MsgType::kReport, "draining\n");
      request_drain();
      return;
    default:
      // Well-framed but unintelligible: the session survives.
      send_error(s, core::ProtoError::kBadRequest,
                 "unknown request type " +
                     std::to_string(int(std::uint8_t(f.type))));
      return;
  }
}

void Server::handle_submit(Session& s, const Frame& f) {
  if (draining_) {
    send_error(s, core::ProtoError::kDraining,
               "daemon is draining; resubmit to the next instance");
    return;
  }
  const KvMap spec = parse_kv(f.text());

  // Validate now, on the server thread, so a bad submission is a
  // structured error at submit time — not a failed job discovered later.
  try {
    const std::vector<core::SweepCell> cells = cfg_.resolver(spec);
    if (cells.empty()) {
      send_error(s, core::ProtoError::kUnknownGrid,
                 "unknown grid '" + kv_get(spec, "grid") + "'");
      return;
    }
    for (const core::SweepCell& c : cells) c.scenario.validate();
    const long runs = std::strtol(
        kv_get(spec, "runs", std::to_string(cfg_.default_runs)).c_str(),
        nullptr, 10);
    if (runs <= 0 || runs > 1'000'000) {
      send_error(s, core::ProtoError::kBadRequest,
                 "runs must be in [1, 1e6], got '" + kv_get(spec, "runs") +
                     "'");
      return;
    }
  } catch (const core::SimError& e) {
    send_error(s, core::ProtoError::kInvalidScenario, e.what());
    return;
  } catch (const std::invalid_argument& e) {
    send_error(s, core::ProtoError::kInvalidScenario, e.what());
    return;
  } catch (const std::exception& e) {
    send_error(s, core::ProtoError::kInternal, e.what());
    return;
  }

  const JobStore::Admission adm = store_.submit(spec);
  if (adm.err != core::ProtoError::kNone) {
    send_error(s, adm.err, adm.message, adm.retry_after_s);
    return;
  }
  KvMap ack;
  ack["job"] = std::to_string(adm.id);
  ack["journal"] = store_.journal_path(adm.id);
  send_frame(s, MsgType::kAccepted, encode_kv(ack));
  {
    std::lock_guard lk(runner_mu_);
  }
  runner_cv_.notify_all();
}

void Server::handle_watch(Session& s, const Frame& f) {
  const KvMap kv = parse_kv(f.text());
  const std::uint64_t id = parse_id(kv, "job");
  JobState state{};
  if (id == 0 || !store_.snapshot(id, &state, nullptr, nullptr, nullptr,
                                  nullptr)) {
    send_error(s, core::ProtoError::kUnknownJob,
               "watch: no such job " + kv_get(kv, "job"));
    return;
  }
  s.watching = true;
  s.watch_job = id;
  // Reconnect resume: the client tells us the last snapshot seq it saw and
  // only newer ones flow.  A fresh watch starts from 0 (everything).
  s.sent_seq = parse_id(kv, "seq");
  s.done_sent = false;
  // Make sure there is something to deliver even if the job never
  // published this incarnation (e.g. it finished before a restart).
  if (!publisher_.latest(id).has_value()) publish_terminal(id);
  wake();
}

void Server::push_snapshots() {
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (!s.watching || s.fd < 0 || s.closing) continue;
    const auto latest = publisher_.latest(s.watch_job);
    if (!latest.has_value()) continue;
    if (latest->seq > s.sent_seq) {
      std::string payload = latest->payload;
      payload += "seq=" + std::to_string(latest->seq) + "\n";
      // In-band loss marker: this session missed at least one snapshot to
      // the buffer cap since the last one that fit.
      if (s.out.take_lossy()) payload += "lossy=1\n";
      if (s.out.push(encode_frame(MsgType::kSnapshot, payload), true)) {
        s.sent_seq = latest->seq;
      }
      // Dropped: sent_seq stays put; we retry when the buffer drains.
    }
    if (latest->done && !s.done_sent && s.sent_seq >= latest->seq) {
      JobState state{};
      std::string error;
      (void)store_.snapshot(s.watch_job, &state, nullptr, &error, nullptr,
                            nullptr);
      KvMap done;
      done["job"] = std::to_string(s.watch_job);
      done["state"] = std::string(to_string(state));
      if (!error.empty()) done["error"] = error;
      if (state == JobState::kDone || state == JobState::kFailed) {
        done["csv"] = store_.csv_prefix(s.watch_job);
      }
      send_frame(s, MsgType::kDone, encode_kv(done));
      s.done_sent = true;
    }
  }
}

void Server::publish_job(std::uint64_t id, const core::ProgressSnapshot& snap,
                         bool terminal) {
  JobState state{};
  (void)store_.snapshot(id, &state, nullptr, nullptr, nullptr, nullptr);
  KvMap kv;
  kv["job"] = std::to_string(id);
  kv["state"] = std::string(to_string(state));
  kv["total"] = std::to_string(snap.total);
  kv["finished"] = std::to_string(snap.finished);
  kv["succeeded"] = std::to_string(snap.succeeded);
  kv["failed"] = std::to_string(snap.failed);
  kv["skipped"] = std::to_string(snap.skipped);
  kv["retries"] = std::to_string(snap.retries);
  kv["quarantined"] = std::to_string(snap.quarantined);
  kv["cells"] = std::to_string(snap.cells);
  kv["cells_finished"] = std::to_string(snap.cells_finished);
  if (snap.final) kv["final"] = "1";
  publisher_.publish(id, encode_kv(kv), terminal);
  wake();
}

void Server::publish_terminal(std::uint64_t id) {
  JobState state{};
  core::ProgressSnapshot snap;
  bool have = false;
  if (!store_.snapshot(id, &state, nullptr, nullptr, &snap, &have)) return;
  publish_job(id, snap, is_terminal(state));
}

void Server::runner_main() {
  for (;;) {
    bool drain = false;
    {
      std::unique_lock lk(runner_mu_);
      runner_cv_.wait(lk, [this] {
        return draining_ || store_.queued_count() > 0;
      });
      drain = draining_;
    }
    if (drain) break;
    const std::uint64_t id = store_.claim_next();
    if (id == 0) continue;
    current_job_.store(id, std::memory_order_release);
    run_job(id);
    current_job_.store(0, std::memory_order_release);
  }
  runner_done_.store(true, std::memory_order_release);
  wake();
}

void Server::run_job(std::uint64_t id) {
  Job* job = store_.find(id);
  if (job == nullptr) return;
  KvMap spec;
  (void)store_.snapshot(id, nullptr, &spec, nullptr, nullptr, nullptr);

  std::vector<core::SweepCell> cells;
  try {
    cells = cfg_.resolver(spec);
    if (cells.empty()) {
      throw std::invalid_argument("unknown grid '" + kv_get(spec, "grid") +
                                  "'");
    }
  } catch (const std::exception& e) {
    // Admission validated this, so failing here means the daemon changed
    // under a recovered job (different grids, say) — a failed job, not a
    // dead daemon.
    store_.finish(id, JobState::kFailed,
                  std::string("spec no longer resolves: ") + e.what());
    publish_terminal(id);
    return;
  }

  core::SweepOptions opts;
  opts.runs = int(std::strtol(
      kv_get(spec, "runs", std::to_string(cfg_.default_runs)).c_str(),
      nullptr, 10));
  if (opts.runs <= 0) opts.runs = cfg_.default_runs;
  opts.threads = cfg_.threads;
  opts.stop = &job->stop;
  opts.throw_on_failure = false;
  opts.journal_path = store_.journal_path(id);
  opts.journal_sync = cfg_.journal_sync;
  // The journal note carries the spec: recovery can re-admit this job from
  // the journal alone, with no state file at all.
  opts.journal_note = encode_kv(spec);
  opts.snapshot_interval_ms = cfg_.snapshot_ms;
  opts.on_snapshot = [this, id](const core::ProgressSnapshot& snap) {
    store_.update_progress(id, snap);
    publish_job(id, snap, false);
  };
  if (cfg_.forked) {
    opts.isolation = core::Isolation::kForked;
    opts.limits = cfg_.limits;
    if (cfg_.job_wall_s > 0 && opts.limits.wall_seconds <= 0) {
      opts.limits.wall_seconds = cfg_.job_wall_s;
    }
  } else if (cfg_.job_wall_s > 0) {
    // Stuck-job watchdog, in-process flavor: the wall budget is
    // environmental (not part of the grid fingerprint), so setting it here
    // never breaks journal resume.
    for (core::SweepCell& c : cells) {
      c.scenario.watchdog_wall_budget_s = cfg_.job_wall_s;
    }
  }

  core::SweepResult result;
  try {
    result = core::run_sweep(cells, opts);
  } catch (const std::exception& e) {
    store_.finish(id, JobState::kFailed, e.what());
    publish_terminal(id);
    return;
  }

  if (result.report.interrupted) {
    if (job->cancel_requested) {
      store_.finish(id, JobState::kCancelled, "cancelled while running");
      publish_terminal(id);
    } else {
      // Drain: journaled progress is safe; the next incarnation resumes.
      store_.requeue_front(id);
    }
    return;
  }

  std::string error;
  JobState final_state = JobState::kDone;
  try {
    (void)core::write_sweep_csvs(store_.csv_prefix(id), result);
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    error = std::string("writing CSVs failed: ") + e.what();
  }
  if (final_state == JobState::kDone && result.report.failed() != 0) {
    final_state = JobState::kFailed;
    error = std::to_string(result.report.failed()) + " of " +
            std::to_string(result.report.total) + " jobs failed";
  }
  store_.finish(id, final_state, error);
  publish_terminal(id);
}

}  // namespace cgs::svc
