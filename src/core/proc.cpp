#include "core/proc.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "util/wire.hpp"

namespace cgs::core::proc {
namespace {

// One result frame crosses the pipe, child -> supervisor, in the
// util/wire frame shape with a two-byte head:
//   magic "CGSP" | u8 status (0 ok, 1 classified failure) | u8 class
// A frame that is torn (child killed mid-write) or absent fails the
// frame scan and the supervisor falls back to exit-status classification.
constexpr std::uint32_t kFrameMagic = 0x50534743u;  // "CGSP"
constexpr std::size_t kFrameHead = 1 + 1;

// Child exit codes for supervisor-protocol failures (never from the job).
constexpr int kExitWriteFailed = 121;

[[noreturn]] void supervisor_error(const char* op) {
  throw std::runtime_error(std::string("proc: ") + op + ": " +
                           std::strerror(errno));
}

/// Build the wire frame for one child verdict.
std::vector<unsigned char> frame_bytes(bool ok, ErrorClass cls,
                                       std::string_view payload) {
  util::wire::Writer w(4 + kFrameHead + 4 + payload.size() + 4);
  w.u32(kFrameMagic).u8(ok ? 0 : 1).u8(std::uint8_t(cls));
  w.str(payload).seal();
  return w.take();
}

/// Parse the child's buffered pipe output.  False unless it is exactly one
/// intact frame (absent, torn, corrupt, or trailing bytes) — the caller
/// then classifies from the exit status instead.
bool parse_frame(const std::vector<unsigned char>& buf, ChildResult& out) {
  const util::wire::FrameView f = util::wire::scan_frame(
      buf.data(), buf.size(), kFrameMagic, kFrameHead, UINT32_MAX);
  if (f.status != util::wire::Scan::kFrame || f.size != buf.size()) {
    return false;
  }
  out.ok = f.head[0] == 0;
  out.cls =
      out.ok ? ErrorClass::kUnclassified : error_class_from_byte(f.head[1]);
  if (out.ok) {
    out.payload.assign(f.payload, f.payload + f.payload_len);
  } else {
    out.message.assign(reinterpret_cast<const char*>(f.payload),
                       f.payload_len);
  }
  return true;
}

/// Apply the per-job caps inside the child.  Failures are ignored — a cap
/// that cannot be applied degrades to "uncapped", never to a dead child.
void apply_limits(const ResourceLimits& limits) {
  // Crash-heavy workloads must not litter (or stall on) core dumps.
  rlimit core{0, 0};
  (void)::setrlimit(RLIMIT_CORE, &core);
  if (limits.address_space_bytes > 0) {
    rlimit as{rlim_t(limits.address_space_bytes),
              rlim_t(limits.address_space_bytes)};
    (void)::setrlimit(RLIMIT_AS, &as);
  }
  if (limits.cpu_seconds > 0) {
    // Soft cap delivers SIGXCPU (classified kResource); the hard cap two
    // seconds later SIGKILLs a child that somehow survives it.
    rlimit cpu{rlim_t(limits.cpu_seconds), rlim_t(limits.cpu_seconds) + 2};
    (void)::setrlimit(RLIMIT_CPU, &cpu);
  }
}

[[noreturn]] void child_main(int write_fd, const ChildJob& job,
                             const ResourceLimits& limits) {
  // A crashing job must die by its signal whatever handler the host
  // process installed (sanitizer runtimes install SEGV handlers that
  // report and exit), so the supervisor classifies it as a crash.
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::signal(sig, SIG_DFL);
  }
  apply_limits(limits);
  std::vector<unsigned char> frame;
  try {
    const std::vector<unsigned char> payload = job();
    frame = frame_bytes(
        true, ErrorClass::kUnclassified,
        {reinterpret_cast<const char*>(payload.data()), payload.size()});
  } catch (const std::exception& e) {
    frame = frame_bytes(false, classify(e), e.what());
  } catch (...) {
    frame = frame_bytes(false, ErrorClass::kUnclassified, "unknown exception");
  }
  if (!write_exact(write_fd, frame.data(), frame.size())) {
    ::_exit(kExitWriteFailed);
  }
  ::_exit(0);
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGTRAP: return "SIGTRAP";
    case SIGSYS: return "SIGSYS";
    case SIGKILL: return "SIGKILL";
    case SIGXCPU: return "SIGXCPU";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return "signal";
  }
}

/// Classify a child that died without delivering an intact result frame.
void classify_exit(int status, bool timed_out, const ResourceLimits& limits,
                   ChildResult& out) {
  out.ok = false;
  std::ostringstream os;
  if (timed_out) {
    // The supervisor's own SIGKILL: the deadline verdict wins regardless
    // of how the wait status reads.
    out.cls = ErrorClass::kTimeout;
    os << "job exceeded its " << limits.wall_seconds
       << " s wall-clock deadline and was killed";
    out.message = os.str();
    return;
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    out.term_signal = sig;
    out.exit_status = -1;
    if (sig == SIGXCPU) {
      out.cls = ErrorClass::kResource;
      os << "child hit its " << limits.cpu_seconds
         << " s CPU rlimit (SIGXCPU)";
    } else if (sig == SIGKILL) {
      // Not our deadline kill, so the kernel's: the OOM killer (or an
      // operator) SIGKILLed the child.
      out.cls = ErrorClass::kResource;
      os << "child was SIGKILLed outside the supervisor "
         << "(kernel OOM killer or operator)";
    } else {
      out.cls = ErrorClass::kCrash;
      os << "child died on fatal signal " << sig << " (" << signal_name(sig)
         << ")";
    }
    out.message = os.str();
    return;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  out.exit_status = code;
  out.cls = ErrorClass::kCrash;
  os << "child exited with status " << code
     << " without reporting a result";
  out.message = os.str();
}

/// Read up to `n` bytes, retrying EINTR only.  Returns the byte count
/// (0 = EOF), or -1 on a real error (errno is preserved).
long read_some(int fd, void* data, std::size_t n) {
  for (;;) {
    const ssize_t r = ::read(fd, data, n);
    if (r >= 0) return long(r);
    if (errno != EINTR) return -1;
  }
}

}  // namespace

bool write_exact(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= std::size_t(w);
  }
  return true;
}

ChildResult run_forked(const ChildJob& job, const ResourceLimits& limits) {
  int fds[2];
  if (::pipe(fds) != 0) supervisor_error("pipe");

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    supervisor_error("fork");
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fds[1], job, limits);  // never returns
  }
  ::close(fds[1]);

  using Clock = std::chrono::steady_clock;
  const bool has_deadline = limits.wall_seconds > 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(limits.wall_seconds));

  ChildResult result;
  std::vector<unsigned char> buf;
  unsigned char chunk[4096];
  for (;;) {
    int timeout_ms = -1;
    if (has_deadline && !result.timed_out) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now());
      timeout_ms = int(std::max<std::int64_t>(remaining.count(), 0));
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      ::kill(pid, SIGKILL);
      ::close(fds[0]);
      while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {}
      supervisor_error("poll");
    }
    if (pr == 0) {
      // Deadline expired with the child still holding the pipe open:
      // SIGKILL it and drain whatever it managed to write (EOF follows).
      result.timed_out = true;
      ::kill(pid, SIGKILL);
      continue;
    }
    // read_some retries EINTR internally; short reads accumulate in buf,
    // so a signal storm during a multi-MB frame costs retries, not bytes.
    const long r = read_some(fds[0], chunk, sizeof chunk);
    if (r < 0) break;   // real error: classify from the exit status
    if (r == 0) break;  // EOF: the child exited (or died)
    buf.insert(buf.end(), chunk, chunk + r);
  }
  ::close(fds[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) supervisor_error("waitpid");
  }

  // An intact frame is authoritative: the job finished and reported before
  // anything killed the process.
  if (parse_frame(buf, result)) return result;
  classify_exit(status, result.timed_out, limits, result);
  return result;
}

}  // namespace cgs::core::proc
