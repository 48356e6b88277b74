#include "core/journal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "core/proc.hpp"
#include "util/wire.hpp"

namespace cgs::core {
namespace {

namespace wire = util::wire;

constexpr char kMagic[8] = {'C', 'G', 'S', 'J', 'N', 'L', '0', '1'};
// v2: RunTrace payloads grew a per-link series section (topology layer).
// v3: RunTrace payloads grew a fleet digest tail (hybrid-fidelity layer).
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kRecordMagic = 0x4C4E5247u;  // "GRNL"
// cell + run + seed + ok + class + trace_hash.
constexpr std::size_t kRecordHead = 4 + 4 + 8 + 1 + 1 + 8;
// Anything larger than this is a corrupt length field, not a real payload
// (the biggest payload is a serialized RunTrace, a few MB at most).
constexpr std::uint32_t kMaxPayload = 1u << 30;

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  const int err = errno;
  throw JournalError("journal: " + op + " '" + path + "': " +
                     std::strerror(err) + " (errno " + std::to_string(err) +
                     ")");
}

/// fsync with EINTR retry; throws naming the path and errno.  This is
/// where ENOSPC/EIO from deferred writeback most often surface.
void fsync_or_throw(int fd, const std::string& path) {
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    throw_errno("fsync", path);
  }
}

void write_or_throw(int fd, const std::vector<unsigned char>& bytes,
                    const std::string& path) {
  if (!proc::write_exact(fd, bytes.data(), bytes.size())) {
    throw_errno("write", path);
  }
}

std::vector<unsigned char> header_bytes(const JournalMeta& meta) {
  wire::Writer w;
  w.raw(kMagic, sizeof kMagic).u32(kVersion).u64(meta.fingerprint);
  w.u32(meta.runs).u32(meta.cells).str(meta.note).seal();
  return w.take();
}

std::vector<unsigned char> record_bytes(const JournalEntry& e) {
  wire::Writer w(4 + kRecordHead + 4 + e.payload.size() + 4);
  w.u32(kRecordMagic).u32(e.cell).u32(e.run).u64(e.seed);
  w.u8(e.ok ? 1 : 0).u8(std::uint8_t(e.cls)).u64(e.trace_hash);
  w.pod(e.payload).seal();
  return w.take();
}

}  // namespace

// -- scanning --------------------------------------------------------------

std::optional<JournalScan> read_journal(const std::string& path) {
  std::vector<unsigned char> buf;
  if (!proc::read_file(path, buf)) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("read", path);
  }

  // Fixed header fields: magic, version, fingerprint, runs, cells, note
  // length.
  constexpr std::size_t kHeaderFixed = 8 + 4 + 8 + 4 + 4 + 4;
  if (buf.size() < kHeaderFixed) return std::nullopt;  // died mid-creation
  wire::Reader r(buf.data(), buf.size());
  char magic[sizeof kMagic];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw JournalError("journal: '" + path + "' is not a CGS journal");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw JournalError("journal: '" + path + "' has unsupported version " +
                       std::to_string(version));
  }
  JournalScan scan;
  scan.meta.fingerprint = r.u64();
  scan.meta.runs = r.u32();
  scan.meta.cells = r.u32();
  scan.meta.note = r.str();
  (void)r.u32();  // the header CRC, checked below
  if (!r.ok()) return std::nullopt;  // died while writing the header
  const std::size_t header_total = buf.size() - r.left();
  if (!wire::sealed(buf.data(), header_total)) {
    throw JournalError("journal: '" + path + "' header CRC mismatch");
  }

  // Records.  Anything short of one intact record — too few bytes, a wrong
  // magic, a garbage length — is a torn tail if it is the last thing in
  // the file.
  std::size_t off = header_total;
  while (off < buf.size()) {
    const wire::FrameView f =
        wire::scan_frame(buf.data() + off, buf.size() - off,
                               kRecordMagic, kRecordHead, kMaxPayload);
    if (f.status == wire::Scan::kBadCrc && off + f.size != buf.size()) {
      // A complete-looking record with a bad CRC: torn only at end-of-file
      // (a crash mid-write); anywhere else the file is corrupt.
      throw JournalError("journal: '" + path + "' corrupt record at offset " +
                         std::to_string(off));
    }
    if (f.status != wire::Scan::kFrame) {
      scan.torn_tail = true;
      break;
    }
    wire::Reader head(f.head, kRecordHead);
    JournalEntry& e = scan.entries.emplace_back();
    e.cell = head.u32();
    e.run = head.u32();
    e.seed = head.u64();
    e.ok = head.u8() != 0;
    e.cls = error_class_from_byte(head.u8());
    e.trace_hash = head.u64();
    e.payload.assign(f.payload, f.payload + f.payload_len);
    off += f.size;
  }
  scan.valid_bytes = off;
  return scan;
}

std::vector<JournalFileInfo> scan_journal_dir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) throw_errno("opendir", dir);
  std::vector<JournalFileInfo> out;
  for (;;) {
    errno = 0;
    const dirent* ent = ::readdir(d);
    if (ent == nullptr) break;
    const std::string name = ent->d_name;
    constexpr std::string_view kSuffix = ".jnl";
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    const std::string path = dir + "/" + name;
    try {
      const auto scan = read_journal(path);
      if (!scan) continue;  // died mid-creation: nothing recoverable
      JournalFileInfo info;
      info.path = path;
      info.meta = scan->meta;
      info.entries = scan->entries.size();
      info.torn_tail = scan->torn_tail;
      out.push_back(std::move(info));
    } catch (const JournalError&) {
      // Foreign or corrupt-beyond-repair file: a restart scan must not die
      // on one bad inode, it recovers everything else.
      continue;
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const JournalFileInfo& a, const JournalFileInfo& b) {
              return a.path < b.path;
            });
  return out;
}

// -- writing ---------------------------------------------------------------

JournalWriter JournalWriter::create(const std::string& path,
                                    const JournalMeta& meta, bool sync) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("create", path);
  JournalWriter w(fd, sync, path);
  write_or_throw(fd, header_bytes(meta), path);
  if (sync) fsync_or_throw(fd, path);
  return w;
}

JournalWriter JournalWriter::append_to(const std::string& path,
                                       std::uint64_t valid_bytes, bool sync) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) throw_errno("open", path);
  JournalWriter w(fd, sync, path);
  // Drop any torn tail before appending over it.
  if (::ftruncate(fd, off_t(valid_bytes)) != 0) throw_errno("truncate", path);
  if (::lseek(fd, off_t(valid_bytes), SEEK_SET) < 0) throw_errno("seek", path);
  return w;
}

JournalWriter::JournalWriter(JournalWriter&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      sync_(o.sync_),
      path_(std::move(o.path_)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(o.fd_, -1);
    sync_ = o.sync_;
    path_ = std::move(o.path_);
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  // Silent close: a destructor cannot throw.  Callers that must learn
  // about deferred ENOSPC/EIO call close() explicitly first.
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const JournalEntry& e) {
  if (fd_ < 0) throw JournalError("journal: append on a moved-from writer");
  write_or_throw(fd_, record_bytes(e), path_);
  if (sync_) fsync_or_throw(fd_, path_);
}

void JournalWriter::close() {
  if (fd_ < 0) return;
  const int fd = std::exchange(fd_, -1);
  // Without per-record fsync, buffered records may not have hit the disk
  // yet — flush now so a full filesystem fails the sweep loudly instead
  // of quietly truncating the journal.
  if (!sync_) {
    try {
      fsync_or_throw(fd, path_);
    } catch (...) {
      ::close(fd);
      throw;
    }
  }
  if (::close(fd) != 0) throw_errno("close", path_);
}

// -- RunTrace round-trip ---------------------------------------------------

std::vector<unsigned char> serialize_trace(const RunTrace& t) {
  std::size_t est = 64;
  for (const FlowTrace& f : t.flows) {
    est += 64 + f.name.size() + f.mbps.size() * sizeof(double) +
           (f.pkts_recv.size() + f.pkts_lost.size()) * sizeof(std::uint64_t);
  }
  est += (t.game_mbps.size() + t.tcp_mbps.size()) * sizeof(double) +
         (t.game_pkts_recv.size() + t.game_pkts_lost.size() +
          t.queue_drops.size()) *
             sizeof(std::uint64_t) +
         t.rtt.size() * sizeof(PingClient::Sample) +
         t.frame_times.size() * sizeof(Time);
  wire::Writer w(est);
  w.i64(t.sample_interval.count()).i64(t.duration.count());
  w.u32(std::uint32_t(t.flows.size()));
  for (const FlowTrace& f : t.flows) {
    w.u64(std::uint64_t(f.id)).str(f.name).u8(std::uint8_t(f.kind));
    w.pod(f.mbps).pod(f.pkts_recv).pod(f.pkts_lost);
  }
  w.pod(t.game_mbps).pod(t.tcp_mbps).pod(t.rtt).pod(t.game_pkts_recv);
  w.pod(t.game_pkts_lost).pod(t.queue_drops).pod(t.frame_times);
  w.u32(std::uint32_t(t.links.size()));
  for (const LinkTrace& l : t.links) {
    w.str(l.name).pod(l.util_mbps).pod(l.depth_bytes).pod(l.drops);
  }
  // Fleet digest tail (outside trace_hash, which covers only the legacy
  // views): one flag byte for fleet-free runs.
  w.u8(t.fleet.active ? 1 : 0);
  if (t.fleet.active) {
    const net::FleetResult& fl = t.fleet;
    w.u64(fl.ticks).u64(fl.session_ticks).u64(fl.stall_ticks);
    w.u64(fl.arrivals).u64(fl.departures);
    w.u32(fl.peak_sessions).u32(fl.final_sessions);
    w.f64(fl.mean_mbps).f64(fl.p50_mbps).f64(fl.p95_mbps).f64(fl.p99_mbps);
    w.f64(fl.stall_rate).f64(fl.jain);
    w.u32(std::uint32_t(fl.links.size()));
    for (const net::FleetLinkLoad& ll : fl.links) {
      w.str(ll.link).f64(ll.offered_mbps_mean).f64(ll.served_mbps_mean);
    }
  }
  return w.take();
}

RunTrace deserialize_trace(const unsigned char* data, std::size_t size) {
  // Every list count is checked against the bytes left (at the minimum
  // encoded size of one element) before anything is allocated for it.
  constexpr std::size_t kMinFlow = 8 + 4 + 1 + 3 * 4;
  constexpr std::size_t kMinLink = 4 + 3 * 4;
  constexpr std::size_t kMinLoad = 4 + 8 + 8;
  wire::Reader r(data, size);
  RunTrace t;
  t.sample_interval = Time(r.i64());
  t.duration = Time(r.i64());
  t.flows.resize(r.count(kMinFlow));
  for (FlowTrace& f : t.flows) {
    f.id = net::FlowId(r.u64());
    f.name = r.str();
    f.kind = FlowKind(r.u8());
    f.mbps = r.pod<double>();
    f.pkts_recv = r.pod<std::uint64_t>();
    f.pkts_lost = r.pod<std::uint64_t>();
  }
  t.game_mbps = r.pod<double>();
  t.tcp_mbps = r.pod<double>();
  t.rtt = r.pod<PingClient::Sample>();
  t.game_pkts_recv = r.pod<std::uint64_t>();
  t.game_pkts_lost = r.pod<std::uint64_t>();
  t.queue_drops = r.pod<std::uint64_t>();
  t.frame_times = r.pod<Time>();
  t.links.resize(r.count(kMinLink));
  for (LinkTrace& l : t.links) {
    l.name = r.str();
    l.util_mbps = r.pod<double>();
    l.depth_bytes = r.pod<std::uint64_t>();
    l.drops = r.pod<std::uint64_t>();
  }
  if (r.u8() != 0) {
    net::FleetResult& fl = t.fleet;
    fl.active = true;
    fl.ticks = r.u64();
    fl.session_ticks = r.u64();
    fl.stall_ticks = r.u64();
    fl.arrivals = r.u64();
    fl.departures = r.u64();
    fl.peak_sessions = r.u32();
    fl.final_sessions = r.u32();
    fl.mean_mbps = r.f64();
    fl.p50_mbps = r.f64();
    fl.p95_mbps = r.f64();
    fl.p99_mbps = r.f64();
    fl.stall_rate = r.f64();
    fl.jain = r.f64();
    fl.links.resize(r.count(kMinLoad));
    for (net::FleetLinkLoad& ll : fl.links) {
      ll.link = r.str();
      ll.offered_mbps_mean = r.f64();
      ll.served_mbps_mean = r.f64();
    }
  }
  if (!r.ok()) throw JournalError("journal: truncated trace payload");
  if (!r.done()) {
    throw JournalError("journal: trailing bytes after trace payload");
  }
  return t;
}

// -- hashing ---------------------------------------------------------------

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_hash(const RunTrace& t) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a_bytes(h, t.game_mbps.data(), t.game_mbps.size() * sizeof(double));
  h = fnv1a_bytes(h, t.tcp_mbps.data(), t.tcp_mbps.size() * sizeof(double));
  h = fnv1a_bytes(h, t.game_pkts_recv.data(),
                  t.game_pkts_recv.size() * sizeof(std::uint64_t));
  h = fnv1a_bytes(h, t.game_pkts_lost.data(),
                  t.game_pkts_lost.size() * sizeof(std::uint64_t));
  h = fnv1a_bytes(h, t.queue_drops.data(),
                  t.queue_drops.size() * sizeof(std::uint64_t));
  h = fnv1a_bytes(h, t.frame_times.data(),
                  t.frame_times.size() * sizeof(Time));
  h = fnv1a_bytes(h, t.rtt.data(), t.rtt.size() * sizeof(PingClient::Sample));
  return h;
}

std::uint64_t sweep_fingerprint(const std::vector<SweepCell>& cells,
                                int runs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix_u64 = [&](std::uint64_t v) { h = fnv1a_bytes(h, &v, sizeof v); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    h = fnv1a_bytes(h, s.data(), s.size());
  };

  mix_u64(std::uint64_t(runs));
  mix_u64(cells.size());
  for (const SweepCell& c : cells) {
    mix_str(c.label);
    const Scenario& sc = c.scenario;
    mix_str(sc.label());  // system/capacity/queue/algo in one line
    mix_u64(sc.seed);
    mix_u64(std::uint64_t(sc.duration.count()));
    mix_u64(std::uint64_t(sc.base_rtt.count()));
    mix_u64(std::uint64_t(sc.tcp_start.count()));
    mix_u64(std::uint64_t(sc.tcp_stop.count()));
    mix_u64(std::uint64_t(sc.queue_kind));
    mix_u64(sc.watchdog_event_budget);
    // Fault injection changes what the grid *is*, so an active fault must
    // fail fingerprint matching against a clean journal.  Mixed only when
    // armed so every pre-existing clean-grid fingerprint stays stable.
    // (The wall budget is deliberately absent: it is environmental and
    // never alters a healthy run's trace.)
    if (sc.fault.kind != Scenario::FaultKind::kNone) {
      mix_u64(std::uint64_t(sc.fault.kind));
      mix_u64(sc.fault.seed);
    }
    const auto flows = sc.effective_flows();
    mix_u64(flows.size());
    for (const FlowSpec& f : flows) {
      mix_u64(std::uint64_t(f.kind));
      mix_u64(std::uint64_t(f.id));
      mix_str(f.name);
      mix_u64(std::uint64_t(f.algo));
      mix_u64(std::uint64_t(f.start.count()));
      mix_u64(f.stop ? std::uint64_t(f.stop->count()) : ~std::uint64_t{0});
      mix_u64(std::uint64_t(f.extra_owd.count()));
    }
    // Explicit topologies change what the grid *is*; mixed only when
    // non-empty so every legacy single-bottleneck fingerprint stays stable.
    if (!sc.topology.empty()) {
      const net::TopologySpec topo = sc.topology.resolved();
      mix_str(topo.name);
      mix_u64(topo.links.size());
      for (const net::LinkSpec& l : topo.links) {
        mix_str(l.name);
        mix_u64(std::uint64_t(l.rate.bits_per_sec()));
        mix_u64(std::uint64_t(l.prop_delay.count()));
        mix_u64(l.queue ? std::uint64_t(*l.queue) + 1 : 0);
        if (l.queue_bdp_mult) {
          std::uint64_t bits;
          std::memcpy(&bits, &*l.queue_bdp_mult, sizeof bits);
          mix_u64(bits + 1);
        } else {
          mix_u64(0);
        }
        mix_u64(l.queue_bytes ? std::uint64_t(l.queue_bytes->bytes()) + 1 : 0);
        mix_u64(l.impair && l.impair->any() ? 1 : 0);
        mix_u64(l.rate_schedule.size());
        for (const net::RateChange& rc : l.rate_schedule) {
          mix_u64(std::uint64_t(rc.at.count()));
          mix_u64(std::uint64_t(rc.rate.bits_per_sec()));
        }
      }
      const auto mix_names = [&](const std::vector<std::string>& names) {
        mix_u64(names.size());
        for (const std::string& n : names) mix_str(n);
      };
      mix_names(topo.default_down);
      mix_names(topo.default_up);
      mix_u64(topo.paths.size());
      for (const net::PathSpec& p : topo.paths) {
        mix_u64(std::uint64_t(p.flow));
        mix_names(p.down);
        mix_names(p.up);
      }
    }
    // The fleet spec changes what the grid *is*; mixed only when non-empty
    // (same conditional pattern as fault/topology) so every fleet-free
    // fingerprint stays stable.
    if (!sc.fleet.empty()) {
      const auto mix_f64 = [&](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        mix_u64(bits);
      };
      mix_u64(std::uint64_t(sc.fleet.tick.count()));
      mix_f64(sc.fleet.stall_threshold);
      mix_u64(sc.fleet.sources.size());
      for (const net::FluidSourceSpec& src : sc.fleet.sources) {
        mix_u64(std::uint64_t(src.cls));
        mix_str(src.link);
        mix_u64(src.sessions);
        mix_f64(src.rate_mbps);
        mix_f64(src.rate_jitter);
        mix_f64(src.arrival_per_min);
        mix_f64(src.mean_holding_s);
        mix_u64(src.diurnal.size());
        for (double d : src.diurnal) mix_f64(d);
        mix_u64(src.max_sessions);
      }
    }
    // Non-default trace policies thin the series a journal stores, so they
    // also distinguish grids (mixed only when non-default).
    if (sc.trace_stride != 1 || sc.trace_max_flow_series != 0) {
      mix_u64(sc.trace_stride);
      mix_u64(sc.trace_max_flow_series);
    }
  }
  return h;
}

}  // namespace cgs::core
