#include "core/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/metrics.hpp"
#include "core/proc.hpp"
#include "util/wire.hpp"

namespace cgs::core {
namespace {

namespace wire = util::wire;

constexpr char kMagic[8] = {'C', 'G', 'S', 'J', 'N', 'L', '0', '1'};
// v2: RunTrace payloads grew a per-link series section (topology layer).
// v3: RunTrace payloads grew a fleet digest tail (hybrid-fidelity layer).
// v4: the five two-flow view sections left the payload (RunTrace derives
//     them), and the fingerprint digests each cell's key.
constexpr std::uint32_t kVersion = 4;
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

namespace {

// Fixed header fields: magic, version, fingerprint, runs, cells, note
// length.
constexpr std::size_t kHeaderFixed = 8 + 4 + 8 + 4 + 4 + 4;
// A record's magic, head and length field: what scan_frame needs to learn
// the frame's size.
constexpr std::size_t kRecordFixed = 4 + kRecordHead + 4;

/// Closes a file descriptor on scope exit.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  ~FdCloser() { ::close(fd_); }

 private:
  int fd_;
};

/// Size of the open file `fd`; throws naming `path` and errno.
std::uint64_t file_size(int fd, const std::string& path) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw_errno("stat", path);
  return std::uint64_t(st.st_size);
}

/// pread exactly `n` bytes at `off`, retrying EINTR and short reads.
/// False at end-of-file; throws on a read error.
bool read_at(int fd, std::uint64_t off, unsigned char* out, std::size_t n,
             const std::string& path) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, off_t(off));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("read", path);
    }
    if (got == 0) return false;
    out += got;
    off += std::uint64_t(got);
    n -= std::size_t(got);
  }
  return true;
}

/// Read the record frame at `off` of a `size`-byte file into `buf`: the
/// fixed part first, then the whole frame, each checked by scan_frame.
/// Nothing past the file's end is read or allocated, so a garbage length
/// field costs no memory.  `buf` only grows: one buffer serves a walk.
wire::FrameView read_record(int fd, std::uint64_t off, std::uint64_t size,
                            std::vector<unsigned char>& buf,
                            const std::string& path) {
  const std::uint64_t left = off < size ? size - off : 0;
  if (left < kRecordFixed) return {};
  if (buf.size() < kRecordFixed) buf.resize(kRecordFixed);
  if (!read_at(fd, off, buf.data(), kRecordFixed, path)) return {};
  const wire::FrameView fixed = wire::scan_frame(
      buf.data(), kRecordFixed, kRecordMagic, kRecordHead, kMaxPayload);
  if (fixed.status != wire::Scan::kShort || left < fixed.size) return fixed;
  if (buf.size() < fixed.size) buf.resize(fixed.size);
  if (!read_at(fd, off + kRecordFixed, buf.data() + kRecordFixed,
               fixed.size - kRecordFixed, path)) {
    return {};
  }
  return wire::scan_frame(buf.data(), fixed.size, kRecordMagic, kRecordHead,
                          kMaxPayload);
}

/// The head fields of an intact frame read at `off`.
JournalEntry entry_of(const wire::FrameView& f, std::uint64_t off) {
  wire::Reader head(f.head, kRecordHead);
  JournalEntry e;
  e.cell = head.u32();
  e.run = head.u32();
  e.seed = head.u64();
  e.ok = head.u8() != 0;
  e.cls = error_class_from_byte(head.u8());
  e.trace_hash = head.u64();
  e.offset = off;
  return e;
}

/// The one journal walk behind read_journal and scan_journal.
std::optional<JournalScan> walk_journal(const std::string& path,
                                        bool keep_payloads) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("open", path);
  }
  const FdCloser closer(fd);
  const std::uint64_t size = file_size(fd, path);

  std::vector<unsigned char> buf(kHeaderFixed);
  if (size < kHeaderFixed || !read_at(fd, 0, buf.data(), kHeaderFixed, path)) {
    return std::nullopt;  // died mid-creation
  }
  wire::Reader r(buf.data(), kHeaderFixed);
  char magic[sizeof kMagic];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw JournalError("journal: '" + path + "' is not a CGS journal");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw JournalError("journal: '" + path + "' has unsupported version " +
                       std::to_string(version) + " (this build reads version " +
                       std::to_string(kVersion) + ")");
  }
  JournalScan scan;
  scan.meta.fingerprint = r.u64();
  scan.meta.runs = r.u32();
  scan.meta.cells = r.u32();
  const std::uint64_t header_total = kHeaderFixed + std::uint64_t(r.u32()) + 4;
  if (header_total > size) return std::nullopt;  // died writing the note
  buf.resize(header_total);
  if (!read_at(fd, kHeaderFixed, buf.data() + kHeaderFixed,
               header_total - kHeaderFixed, path)) {
    return std::nullopt;
  }
  if (!wire::sealed(buf.data(), header_total)) {
    throw JournalError("journal: '" + path + "' header CRC mismatch");
  }
  scan.meta.note.assign(
      reinterpret_cast<const char*>(buf.data()) + kHeaderFixed,
      header_total - kHeaderFixed - 4);

  // Records.  Anything short of one intact record — too few bytes, a wrong
  // magic, a garbage length — is a torn tail if it is the last thing in
  // the file.
  std::uint64_t off = header_total;
  while (off < size) {
    const wire::FrameView f = read_record(fd, off, size, buf, path);
    if (f.status == wire::Scan::kBadCrc && off + f.size != size) {
      // A complete-looking record with a bad CRC: torn only at end-of-file
      // (a crash mid-write); anywhere else the file is corrupt.
      throw JournalError("journal: '" + path + "' corrupt record at offset " +
                         std::to_string(off));
    }
    if (f.status != wire::Scan::kFrame) {
      scan.torn_tail = true;
      break;
    }
    JournalEntry& e = scan.entries.emplace_back(entry_of(f, off));
    if (keep_payloads) e.payload.assign(f.payload, f.payload + f.payload_len);
    off += f.size;
  }
  scan.valid_bytes = off;
  return scan;
}

}  // namespace

std::optional<JournalScan> read_journal(const std::string& path) {
  return walk_journal(path, /*keep_payloads=*/true);
}

std::optional<JournalScan> scan_journal(const std::string& path) {
  return walk_journal(path, /*keep_payloads=*/false);
}

JournalPayloads::JournalPayloads(const std::string& path)
    : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)), path_(path) {
  if (fd_ < 0) throw_errno("open", path);
}

JournalPayloads::~JournalPayloads() { ::close(fd_); }

std::span<const unsigned char> JournalPayloads::load(const JournalEntry& e) {
  const wire::FrameView f =
      read_record(fd_, e.offset, file_size(fd_, path_), frame_, path_);
  if (f.status == wire::Scan::kFrame) {
    const JournalEntry now = entry_of(f, e.offset);
    if (now.cell == e.cell && now.run == e.run && now.seed == e.seed &&
        now.ok == e.ok && now.cls == e.cls && now.trace_hash == e.trace_hash) {
      return {f.payload, f.payload_len};
    }
  }
  throw JournalError("journal: '" + path_ + "' record at offset " +
                     std::to_string(e.offset) +
                     " changed since it was scanned");
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
  // Size estimate: three series per flow and per link, each about a link
  // series long, plus rtt and frame_times.
  std::size_t est = 64 + t.rtt.size() * sizeof(PingClient::Sample) +
                    t.frame_times.size() * sizeof(Time);
  const std::size_t series_bytes =
      t.links.empty() ? 0 : t.links.front().drops.size() * sizeof(double);
  est += (t.flows.size() + t.links.size()) * (64 + 3 * series_bytes);
  wire::Writer w(est);
  w.i64(t.sample_interval.count()).i64(t.duration.count());
  w.u32(std::uint32_t(t.flows.size()));
  for (const FlowTrace& f : t.flows) {
    w.u64(std::uint64_t(f.id)).str(f.name).u8(std::uint8_t(f.kind));
    w.pod(f.mbps).pod(f.pkts_recv).pod(f.pkts_lost);
  }
  w.pod(t.rtt).pod(t.frame_times);
  w.u32(std::uint32_t(t.links.size()));
  for (const LinkTrace& l : t.links) {
    w.str(l.name).pod(l.util_mbps).pod(l.depth_bytes).pod(l.drops);
  }
  // Fleet digest tail (outside trace_hash, which covers only the two-flow
  // views, rtt and frame_times): one flag byte for fleet-free runs.
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
  t.rtt = r.pod<PingClient::Sample>();
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
  const auto mix = [](std::uint64_t h, const auto& v) {
    return fnv1a_bytes(h, v.data(), v.size() * sizeof(v[0]));
  };
  std::uint64_t h = 1469598103934665603ULL;
  h = mix(h, t.game_mbps());
  h = mix(h, t.tcp_mbps());
  h = mix(h, t.game_pkts_recv());
  h = mix(h, t.game_pkts_lost());
  h = mix(h, t.queue_drops());
  h = mix(h, t.frame_times);
  h = mix(h, t.rtt);
  return h;
}

namespace {

/// An impairment: a 0 byte where no stage is built (none set, or one
/// whose any() is false), else a 1 byte and every field.
void put_impairment(wire::Writer& w, const net::ImpairmentConfig* im) {
  const bool stage = im != nullptr && im->any();
  w.u8(stage ? 1 : 0);
  if (!stage) return;
  const net::GilbertElliott ge =
      im->gilbert_elliott.value_or(net::GilbertElliott{});
  w.f64(im->loss_rate).u8(im->gilbert_elliott ? 1 : 0);
  w.f64(ge.p_good_bad).f64(ge.p_bad_good).f64(ge.good_loss).f64(ge.bad_loss);
  w.i64(im->jitter.count()).u8(im->allow_reorder ? 1 : 0);
  w.f64(im->duplicate_rate).u32(std::uint32_t(im->outages.size()));
  for (const net::Outage& o : im->outages) {
    w.i64(o.start.count()).i64(o.stop.count()).u8(std::uint8_t(o.policy));
  }
}

}  // namespace

std::vector<unsigned char> cell_key(const SweepCell& cell) {
  const Scenario& sc = cell.scenario;
  wire::Writer w(512);
  // Run inputs.
  w.u64(sc.seed).i64(sc.duration.count()).i64(sc.base_rtt.count());
  w.u64(sc.watchdog_event_budget);
  w.u8(std::uint8_t(sc.fault.kind)).u64(sc.fault.seed);
  // Aggregate inputs: the fairness denominator and the measurement span.
  const AnalysisWindows win = analysis_windows(sc);
  w.i64(sc.capacity.bits_per_sec());
  w.i64(win.compete_from.count()).i64(win.compete_to.count());
  // The network, each link's queue as the graph builds it.
  const net::TopologySpec topo = sc.effective_topology();
  const net::TopologyGraph::Config gc = sc.graph_config();
  w.u32(std::uint32_t(topo.links.size()));
  for (const net::LinkSpec& l : topo.links) {
    const net::LinkQueue q = net::link_queue(l, gc);
    w.str(l.name).i64(l.rate.bits_per_sec()).i64(l.prop_delay.count());
    w.u8(std::uint8_t(q.kind)).i64(q.bytes.bytes());
    put_impairment(w, l.impair ? &*l.impair : nullptr);
    w.u32(std::uint32_t(l.rate_schedule.size()));
    for (const net::RateChange& rc : l.rate_schedule) {
      w.i64(rc.at.count()).i64(rc.rate.bits_per_sec());
    }
  }
  // The mix, each flow with the field its kind reads and its path.
  const std::vector<FlowSpec> flows = sc.effective_flows();
  w.u32(std::uint32_t(flows.size()));
  for (const FlowSpec& f : flows) {
    w.u8(std::uint8_t(f.kind)).u32(f.id).str(f.name);
    if (f.kind == FlowKind::kGameStream) w.u8(std::uint8_t(*f.system));
    if (f.kind == FlowKind::kBulkTcp) w.u8(std::uint8_t(f.algo));
    w.i64(f.start.count()).u8(f.stop ? 1 : 0);
    w.i64(f.stop.value_or(kTimeZero).count()).i64(f.extra_owd.count());
    put_impairment(w, &sc.upstream_impairment(f));
    const net::FlowPath path = net::flow_path(topo, f.id);
    w.pod(path.down).pod(path.up);
  }
  // The fleet.
  w.u32(std::uint32_t(sc.fleet.sources.size()));
  for (const net::FluidSourceSpec& src : sc.fleet.sources) {
    w.u8(std::uint8_t(src.cls));
    w.u32(std::uint32_t(net::source_link(topo, src))).u32(src.sessions);
    w.f64(src.rate_mbps).f64(src.rate_jitter);
    w.f64(src.arrival_per_min).f64(src.mean_holding_s).pod(src.diurnal);
    w.u32(src.max_sessions);
  }
  // A controller override is a closure: the label is its only name.
  w.u8(sc.controller_override ? 1 : 0);
  w.str(sc.controller_override ? cell.label : std::string());
  return w.take();
}

std::uint64_t sweep_fingerprint(const std::vector<SweepCell>& cells,
                                int runs) {
  wire::Writer w;
  w.u32(std::uint32_t(runs));
  for (const SweepCell& c : cells) w.str(c.label).pod(cell_key(c));
  const std::vector<unsigned char> bytes = w.take();
  return fnv1a_bytes(1469598103934665603ULL, bytes.data(), bytes.size());
}

}  // namespace cgs::core
