// cgs-sweepd: crash-tolerant sweep-as-a-service daemon.
//
// Runs the svc::Server on a loopback TCP port: submissions (named grids or
// inline scenarios) are validated at admission, journaled always, executed
// one at a time on the work-stealing pool, and streamed as throttled
// progress snapshots to any number of subscribers.  SIGTERM/SIGINT drain
// gracefully (in-flight job interrupted-and-journaled, queue persisted);
// kill -9 loses nothing durable — the next incarnation rescans its state
// directory and resumes every interrupted sweep with byte-identical
// results.
//
//   sweepd --dir state/ [--port 0] [--queue 16] [--threads 0] [--runs 5]
//          [--isolation none|forked] [--job-wall SECONDS]
//          [--snapshot-ms 200] [--client-buffer BYTES] [--no-sync]
//
// Prints "sweepd listening on 127.0.0.1:<port>" on stdout once bound and
// writes the port to <dir>/sweepd.port so scripts never hardcode one.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cgstream.hpp"
#include "exit_codes.hpp"
#include "grids.hpp"
#include "svc/server.hpp"

namespace {

using cgs::tools::kExitOk;
using cgs::tools::kExitUsage;
using cgs::tools::kExitVerifyFailed;

cgs::svc::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dir DIR [options]\n"
      "  --dir DIR            state directory (journals, CSVs, queue)\n"
      "  --port N             TCP port on 127.0.0.1 (default 0 = "
      "OS-chosen)\n"
      "  --queue N            admission queue capacity (default 16)\n"
      "  --threads N          sweep threads per job (default 0 = all "
      "cores)\n"
      "  --runs N             default runs per cell (default 5)\n"
      "  --isolation MODE     none|forked (default none)\n"
      "  --job-wall SECONDS   stuck-job wall budget (default 0 = off)\n"
      "  --snapshot-ms MS     progress snapshot throttle (default 200)\n"
      "  --client-buffer B    per-client send buffer bytes (default "
      "262144)\n"
      "  --no-sync            skip per-record journal fsync (tests only)\n"
      "Submissions name a grid (grid=%s)\n"
      "or give an inline scenario (system=, cc=, cap_mbps=, ...).\n",
      argv0, cgs::tools::grid_names().c_str());
}

/// Daemon-side grid resolution: named grids from tools/grids.hpp, inline
/// specs via the svc parser.  Deterministic — resume depends on a grid
/// resolving identically across restarts.
std::vector<cgs::core::SweepCell> resolve_spec(const cgs::svc::KvMap& spec) {
  const std::string grid = cgs::svc::kv_get(spec, "grid");
  if (grid.empty()) return cgs::svc::inline_cells_from_spec(spec);
  const std::uint64_t seed = std::strtoull(
      cgs::svc::kv_get(spec, "seed", "42").c_str(), nullptr, 10);
  const std::optional<std::vector<cgs::core::SweepCell>> cells =
      cgs::tools::grid_by_name(grid, seed);
  return cells.value_or(std::vector<cgs::core::SweepCell>{});
}

}  // namespace

int main(int argc, char** argv) {
  cgs::svc::ServerConfig cfg;
  cfg.resolver = resolve_spec;
  bool have_dir = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sweepd: %s needs a value\n", arg.c_str());
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--dir") {
      cfg.dir = value();
      have_dir = true;
    } else if (arg == "--port") {
      cfg.port = std::atoi(value());
    } else if (arg == "--queue") {
      cfg.max_queue = std::size_t(std::atoi(value()));
    } else if (arg == "--threads") {
      cfg.threads = std::atoi(value());
    } else if (arg == "--runs") {
      cfg.default_runs = std::atoi(value());
    } else if (arg == "--isolation") {
      const std::string mode = value();
      if (mode == "forked") {
        cfg.forked = true;
      } else if (mode != "none") {
        std::fprintf(stderr, "sweepd: unknown isolation '%s'\n",
                     mode.c_str());
        return kExitUsage;
      }
    } else if (arg == "--job-wall") {
      cfg.job_wall_s = std::atof(value());
    } else if (arg == "--snapshot-ms") {
      cfg.snapshot_ms = std::uint32_t(std::atoi(value()));
    } else if (arg == "--client-buffer") {
      cfg.client_buffer_bytes = std::size_t(std::atol(value()));
    } else if (arg == "--no-sync") {
      cfg.journal_sync = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return kExitOk;
    } else {
      std::fprintf(stderr, "sweepd: unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return kExitUsage;
    }
  }
  if (!have_dir) {
    usage(argv[0]);
    return kExitUsage;
  }

  try {
    cgs::svc::Server server(cfg);
    const int port = server.listen();

    // The port file is how scripts find an OS-chosen port: write to a tmp
    // name then rename so a concurrent reader never sees a torn write.
    const std::string port_path = cfg.dir + "/sweepd.port";
    const std::string tmp_path = port_path + ".tmp";
    if (std::FILE* f = std::fopen(tmp_path.c_str(), "w")) {
      std::fprintf(f, "%d\n", port);
      std::fclose(f);
      (void)std::rename(tmp_path.c_str(), port_path.c_str());
    }
    std::printf("sweepd listening on 127.0.0.1:%d\n", port);
    std::fflush(stdout);

    g_server = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_signal;
    sigemptyset(&sa.sa_mask);
    (void)sigaction(SIGTERM, &sa, nullptr);
    (void)sigaction(SIGINT, &sa, nullptr);
    (void)signal(SIGPIPE, SIG_IGN);

    server.run();
    g_server = nullptr;
    std::printf("sweepd drained\n");
    return kExitOk;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepd: %s\n", e.what());
    return kExitVerifyFailed;
  }
}
