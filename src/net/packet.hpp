// Simulation packets.
//
// Packets carry metadata only (no payload bytes): a wire size for queueing /
// serialisation arithmetic plus a typed header variant for the receiving
// endpoint.  Ownership is a unique_ptr moving sender -> queue -> link ->
// sink; raw pointers/references only observe (Core Guidelines I.11).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/arena.hpp"
#include "util/units.hpp"

namespace cgs::net {

/// Identifies one unidirectional flow end-to-end.
using FlowId = std::uint32_t;

/// Traffic class, used by collectors and FQ queues for classification.
enum class TrafficClass : std::uint8_t {
  kGameStream,   // UDP game video downstream
  kStreamInput,  // player input / feedback upstream
  kTcpData,      // bulk TCP data downstream
  kTcpAck,       // TCP ACKs upstream
  kPing,         // latency probes
};

[[nodiscard]] std::string_view to_string(TrafficClass c);

/// One SACK-style block [start, end) in byte sequence space.
struct SackBlock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  [[nodiscard]] bool empty() const { return end <= start; }
};

/// TCP data segment (downstream) or ACK (upstream).
struct TcpHeader {
  std::uint64_t seq = 0;       // first byte of this segment
  std::uint32_t len = 0;       // payload bytes (0 for pure ACK)
  std::uint64_t ack = 0;       // cumulative ACK (valid on ACKs)
  bool is_ack = false;
  std::array<SackBlock, 3> sacks{};  // most recent out-of-order blocks
  std::uint64_t tx_id = 0;     // unique per (re)transmission, for rate sampling
};

/// RTP-style video packet: one slice of an encoded frame.
struct RtpHeader {
  std::uint32_t seq = 0;           // per-flow packet sequence number
  std::uint32_t frame_id = 0;
  std::uint16_t pkt_index = 0;     // index of this packet within the frame
  std::uint16_t pkts_in_frame = 0;
  bool keyframe = false;
  Time frame_gen_time = kTimeZero; // when the encoder emitted the frame
};

/// Receiver report for the game stream (RTCP-like), sent upstream.
struct FeedbackHeader {
  std::uint32_t highest_seq = 0;   // highest RTP seq seen
  std::uint64_t cum_recv_pkts = 0;
  std::uint64_t cum_lost_pkts = 0;
  std::uint32_t window_recv_pkts = 0;  // packets this interval (0 = blackout)
  double window_loss_fraction = 0; // loss over the report interval
  std::int64_t recv_rate_bps = 0;  // goodput over the report interval
  Time avg_owd = kTimeZero;        // mean one-way delay over the interval
  Time min_owd = kTimeZero;        // min one-way delay over the interval
  Time report_time = kTimeZero;    // receiver clock when the report was made
};

/// ICMP-echo-like latency probe.
struct PingHeader {
  std::uint32_t ping_id = 0;
  bool is_reply = false;
  Time sent_time = kTimeZero;
};

using Header =
    std::variant<std::monostate, TcpHeader, RtpHeader, FeedbackHeader, PingHeader>;

struct Packet {
  std::uint64_t uid = 0;      // unique within a simulation
  FlowId flow = 0;
  TrafficClass klass = TrafficClass::kGameStream;
  std::int32_t size_bytes = 0;  // size on the wire, headers included
  Time created = kTimeZero;     // when the sender emitted it
  Time enqueued = kTimeZero;    // set by the queue (for sojourn times)
  Header header;

  [[nodiscard]] ByteSize size() const { return ByteSize(size_bytes); }
};

/// Recycling store backing a PacketFactory: packets live in chunked arenas
/// and circulate through a free list, so steady-state traffic reuses
/// storage instead of hitting the allocator.
///
/// The pool is owned jointly by its factory and every packet it has handed
/// out, through a plain (non-atomic) owner count: the last of them to go
/// deletes the pool, so in-flight packets stay valid even if the factory
/// is destroyed first.  A pool and its packets never leave the thread that
/// runs their simulation, which is what makes the plain count safe.
class PacketPool {
 public:
  /// Heap-allocates a pool owned by the caller alone (owner count 1); hand
  /// that ownership back with drop_owner().  With an arena, packet chunks
  /// are carved from it instead of the heap; the arena must outlive the
  /// pool (and thus every in-flight packet).
  [[nodiscard]] static PacketPool* create(util::Arena* arena = nullptr) {
    return new PacketPool(arena);
  }
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A fresh or recycled packet; the caller becomes one of the pool's
  /// owners until it hands the packet back through release().
  [[nodiscard]] Packet* acquire() {
    ++owners_;
    if (free_.empty()) return carve();
    Packet* p = free_.back();
    free_.pop_back();
    ++recycled_;
    return p;
  }
  /// Return `p` to the free list and give up the owner share it carried.
  void release(Packet* p) noexcept {
    free_.push_back(p);
    drop_owner();
  }
  /// Give up one owner share; the last one deletes the pool.
  void drop_owner() noexcept {
    if (--owners_ == 0) delete this;
  }

  /// Packets currently parked in the free list.
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  /// Distinct Packet objects ever carved from the arenas.
  [[nodiscard]] std::size_t storage_count() const { return storage_count_; }
  /// acquire() calls served from the free list rather than fresh storage.
  [[nodiscard]] std::uint64_t recycled_total() const { return recycled_; }

 private:
  static constexpr std::size_t kChunkSize = 128;

  explicit PacketPool(util::Arena* arena) : arena_(arena) {}
  ~PacketPool() {
    if (arena_ == nullptr) {
      for (Packet* chunk : chunks_) delete[] chunk;
    }
    // Arena-backed chunks are plain storage the arena reclaims wholesale
    // (Packet is trivially destructible; see static_assert below).
  }

  /// Fresh storage for acquire() when the free list is empty.
  [[nodiscard]] Packet* carve();

  util::Arena* arena_;
  std::size_t owners_ = 1;  // the creator plus one per packet handed out
  std::vector<Packet*> chunks_;
  std::vector<Packet*> free_;
  std::size_t chunk_fill_ = kChunkSize;  // next unused index in last chunk
  std::size_t storage_count_ = 0;
  std::uint64_t recycled_ = 0;
};

// Pool teardown (both heap and arena flavours) never runs per-packet
// destructors, so Packet must stay metadata-only.
static_assert(std::is_trivially_destructible_v<Packet>);

/// Returns the packet to its pool (which the packet co-owns); a
/// default-constructed deleter (no pool) falls back to `delete` so
/// detached PacketPtrs stay safe.
struct PacketDeleter {
  PacketPool* pool = nullptr;
  void operator()(Packet* p) const noexcept {
    if (pool != nullptr) {
      pool->release(p);
    } else {
      delete p;
    }
  }
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Factory stamping unique ids; one per simulation. Hands out recycled
/// storage from its pool; `created_total()` counts logical packets (every
/// make()), not distinct allocations.
class PacketFactory {
 public:
  /// With an arena, the pool's packet chunks come from it; the arena must
  /// outlive every packet (for a Testbed run: the whole run).
  explicit PacketFactory(util::Arena* arena = nullptr)
      : pool_(PacketPool::create(arena)) {}
  ~PacketFactory() { pool_->drop_owner(); }
  PacketFactory(const PacketFactory&) = delete;
  PacketFactory& operator=(const PacketFactory&) = delete;

  /// A packet carrying a concrete header type (one of Header's
  /// alternatives), copied once into pooled storage.
  template <typename H>
    requires std::is_constructible_v<Header, std::in_place_type_t<H>, const H&>
  PacketPtr make(FlowId flow, TrafficClass klass, std::int32_t size_bytes,
                 Time now, const H& header) {
    Packet* p = stamp(flow, klass, size_bytes, now);
    p->header.emplace<H>(header);
    return PacketPtr(p, PacketDeleter{pool_});
  }

  /// A packet carrying any header variant (`{}`: no header).
  PacketPtr make(FlowId flow, TrafficClass klass, std::int32_t size_bytes,
                 Time now, const Header& header) {
    Packet* p = stamp(flow, klass, size_bytes, now);
    p->header = header;
    return PacketPtr(p, PacketDeleter{pool_});
  }

  [[nodiscard]] std::uint64_t created_total() const { return next_uid_ - 1; }
  [[nodiscard]] const PacketPool& pool() const { return *pool_; }

 private:
  /// Pooled storage with every field but the header set for a new packet.
  [[nodiscard]] Packet* stamp(FlowId flow, TrafficClass klass,
                              std::int32_t size_bytes, Time now) {
    Packet* p = pool_->acquire();
    p->uid = next_uid_++;
    p->flow = flow;
    p->klass = klass;
    p->size_bytes = size_bytes;
    p->created = now;
    p->enqueued = kTimeZero;
    return p;
  }

  PacketPool* pool_;  // co-owned with every packet still out
  std::uint64_t next_uid_ = 1;
};

/// A burst of same-instant packets handed to one sink in a single call.
///
/// The event engine coalesces consecutive same-deadline deliveries bound
/// for the same sink (see DESIGN.md "Event engine v2") and dispatches them
/// as one batch: one virtual call and one cache-warm pass instead of one
/// event per packet.  Entries are owned; handlers must move every one of
/// the first `count` pointers out (or let them die with the batch).
struct alignas(64) PacketBatch {
  static constexpr std::size_t kCapacity = 32;

  std::size_t count = 0;
  std::array<PacketPtr, kCapacity> pkts;
};

// One batch entry is a pooled unique_ptr: raw pointer + raw pool pointer.
static_assert(sizeof(PacketPtr) == 16);
static_assert(alignof(PacketBatch) == 64);

/// Anything that can accept a packet (endpoint, link, router port).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void handle_packet(PacketPtr pkt) = 0;

  /// Accept a burst of packets that all arrive at the same instant, in
  /// order.  The default unrolls to handle_packet(); sinks with a cheaper
  /// bulk path (Link enqueue, delivery fan-out) override it.  Overrides
  /// must preserve exact per-packet semantics — the engine guarantees the
  /// batch is exactly the run of events that would otherwise have fired
  /// back-to-back, so looping is always a valid implementation.
  virtual void handle_batch(PacketBatch& batch) {
    for (std::size_t i = 0; i < batch.count; ++i) {
      handle_packet(std::move(batch.pkts[i]));
    }
  }
};

/// Wire overhead constants (Ethernet + IP + transport), matching what a
/// Wireshark capture of the paper's testbed would count.
inline constexpr std::int32_t kIpUdpOverhead = 28;    // IPv4 20 + UDP 8
inline constexpr std::int32_t kIpTcpOverhead = 40;    // IPv4 20 + TCP 20
inline constexpr std::int32_t kTcpMss = 1448;         // payload per segment
inline constexpr std::int32_t kTcpSegmentWire = kTcpMss + kIpTcpOverhead;
inline constexpr std::int32_t kTcpAckWire = kIpTcpOverhead;
inline constexpr std::int32_t kRtpPayload = 1172;     // video bytes per packet
inline constexpr std::int32_t kRtpWire = kRtpPayload + kIpUdpOverhead;  // 1200
inline constexpr std::int32_t kFeedbackWire = 80;
inline constexpr std::int32_t kPingWire = 64;

}  // namespace cgs::net
