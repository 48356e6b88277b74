// Cancellable discrete-event scheduler with deterministic ordering.
//
// Ties in time are broken by insertion sequence number, so a given seed
// always produces a bit-identical run regardless of scheduler internals.
//
// Event engine v2 (see DESIGN.md §"Event engine v2"):
//  - Two-tier hierarchical timer wheel + far heap.  A 256-slot near wheel
//    at 2^16 ns (~65.5 µs) granularity covers the current 2^24 ns
//    (~16.8 ms) block; a 256-slot coarse wheel at block granularity covers
//    the next ~4.3 s; everything beyond falls back to a flat 4-ary min-heap.
//    Push is O(1) for the horizons that dominate simulation traffic
//    (serialisation, propagation, RTO/pacing, CoDel intervals).
//  - Due events are drained through a small sorted `due_` staging vector
//    (descending, popped from the back), so the exact (time, seq) total
//    order — and therefore every golden-trace hash — is preserved.
//  - Event records live in a slab of fixed-address 64-byte slots threaded
//    on a free list; steady-state push/pop/cancel never touches the
//    allocator.  EventIds are generation-tagged slot references, so
//    cancel() is an O(1) store and stale handles are simply ignored.
//  - Slots are a tagged union: general callbacks are inline SboFunctions,
//    while packet deliveries are typed {sink, packet} events dispatched
//    with no closure construction at all.  Typed packet events return no
//    handle (they can never be cancelled or rescheduled), which is what
//    makes same-deadline batch coalescing provably order-preserving.
//  - Lazy deletion everywhere: cancelled entries stay parked until they
//    surface, with a unified compaction sweep when stale entries outnumber
//    live ones 2:1.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/arena.hpp"
#include "util/sbo_function.hpp"
#include "util/units.hpp"

namespace cgs::sim {

/// Generation-tagged handle: (slot index + 1) in the high 32 bits, the
/// slot's generation counter in the low 32. Never 0 for a real event.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

/// Move-only callback type; inline capacity covers every closure the
/// simulation schedules (the largest captures a PacketPtr + this, 24
/// bytes).  Alignment is pointer-sized so a slot stays one cache line.
using EventFn = util::SboFunction<40, alignof(void*)>;

class EventQueue {
 public:
  /// With an arena, slot and wheel-node slabs are carved from it instead
  /// of the heap; the arena must outlive the queue.
  explicit EventQueue(util::Arena* arena = nullptr);
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Schedule `fn` at absolute time `at`. Returns a handle for cancel().
  EventId push(Time at, EventFn fn);

  /// push() that constructs the callback directly in its slot.  Scheduling
  /// a lambda through here performs exactly one closure construction — no
  /// SboFunction moves, no manager-thunk calls — which matters at millions
  /// of timer arms per run.
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  EventId push_emplace(Time at, F&& fn) {
    const std::uint32_t i = alloc_slot();
    Slot& s = slot(i);
    ::new (&s.u.fn) EventFn(std::forward<F>(fn));
    s.kind = Kind::kCallback;
    push_entry(HeapEntry{at, next_seq_++, i, s.gen});
    ++live_count_;
    return make_id(i, s.gen);
  }

  /// Schedule delivery of `pkt` to `sink` at absolute time `at`.  Typed
  /// fast path for the packet pipeline: no closure, no handle — a packet
  /// event can never be cancelled or rescheduled, which licenses the
  /// engine to coalesce same-deadline runs into one PacketBatch.
  void push_packet(Time at, net::PacketSink* sink, net::PacketPtr pkt);

  /// Cancel a pending event; no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Move a *pending* event to a new time without touching its callback.
  /// Returns the replacement handle (the old one becomes stale), or
  /// kInvalidEventId if `id` no longer names a pending event.
  EventId reschedule(EventId id, Time at);

  /// From inside a callback running under run_top(): re-push the current
  /// event at `at`, reusing its stored callback in place (no destroy, no
  /// reconstruct, no allocation). Returns the handle for the new firing.
  EventId reschedule_current(Time at);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] Time next_time() {
    ensure_due();
    return due_.back().at;
  }

  /// Pop and return the earliest event. Requires !empty().  A typed packet
  /// event comes back wrapped in an equivalent delivery closure.
  struct Fired {
    Time at;
    EventFn fn;
  };
  Fired pop();

  /// Pop the earliest event and invoke its callback in place (the slot is
  /// only released after the callback returns, enabling
  /// reschedule_current()). Requires !empty().
  void run_top();

  /// Like run_top(), but when the earliest event is a typed packet event,
  /// coalesce the maximal run of consecutive same-deadline events bound
  /// for the same sink (up to PacketBatch::kCapacity) into one
  /// handle_batch() dispatch.  Returns the number of events consumed.
  /// Requires !empty().
  std::size_t run_top_batched();

  /// Total events ever pushed (for stats/tests). Counts initial pushes
  /// and reschedules alike, matching the sequence-number stream.
  [[nodiscard]] std::uint64_t pushed_total() const { return next_seq_ - 1; }

 private:
  // ---- slot slab ---------------------------------------------------------

  /// Typed payload of a packet-delivery event.
  struct PacketEvent {
    net::PacketPtr pkt;
    net::PacketSink* sink;
  };

  enum class Kind : std::uint8_t { kEmpty, kCallback, kPacket };

  struct alignas(64) Slot {
    union Payload {
      Payload() {}   // members are constructed/destroyed manually,
      ~Payload() {}  // keyed by the slot's Kind tag
      EventFn fn;
      PacketEvent pe;
    } u;
    std::uint32_t gen = 0;
    std::uint32_t next_free = 0;
    Kind kind = Kind::kEmpty;
  };
  static_assert(sizeof(EventFn) == 48);
  static_assert(sizeof(PacketEvent) == 24);
  static_assert(sizeof(Slot) == 64 && alignof(Slot) == 64,
                "one event record per cache line");

  // ---- scheduling entries ------------------------------------------------

  /// One scheduled firing: where it sits (due_/far_) or what a wheel node
  /// unpacks to.  (at, seq) is the total order; (slot, gen) validates
  /// against lazy deletion.
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static_assert(sizeof(HeapEntry) == 24);

  /// Wheel-bucket chain node; indexes (not pointers) so slabs can grow.
  struct WheelNode {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint32_t next;
    std::uint32_t pad_ = 0;
  };
  static_assert(sizeof(WheelNode) == 32);

  // ---- geometry ----------------------------------------------------------

  static constexpr std::uint32_t kChunkShift = 7;  // 128 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kNilNode = 0xffffffffu;
  static constexpr std::uint32_t kNodeChunkShift = 8;  // 256 nodes per chunk
  static constexpr std::uint32_t kNodeChunkSize = 1u << kNodeChunkShift;
  static constexpr std::uint32_t kNodeChunkMask = kNodeChunkSize - 1;

  static constexpr int kNearShift = 16;  // near slot = 2^16 ns ≈ 65.5 µs
  static constexpr int kWheelBits = 8;   // 256 buckets per wheel
  static constexpr int kWheelSize = 1 << kWheelBits;
  static constexpr int kWheelMask = kWheelSize - 1;
  static constexpr int kCoarseShift = kNearShift + kWheelBits;  // ~16.8 ms

  [[nodiscard]] Slot& slot(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }
  [[nodiscard]] WheelNode& node(std::uint32_t i) {
    return node_chunks_[i >> kNodeChunkShift][i & kNodeChunkMask];
  }
  [[nodiscard]] static EventId make_id(std::uint32_t slot_index,
                                       std::uint32_t gen) {
    return (EventId(slot_index) + 1) << 32 | gen;
  }

  [[nodiscard]] static std::int64_t near_index(Time at) {
    return at.count() >> kNearShift;
  }
  [[nodiscard]] static std::int64_t block_index(Time at) {
    return at.count() >> kCoarseShift;
  }

  // Free-list pop/push are the per-event allocator; they must inline into
  // push/pop paths, so only slab growth lives out of line.
  std::uint32_t alloc_slot() {
    if (free_head_ == kNoSlot) grow_slots();
    const std::uint32_t i = free_head_;
    free_head_ = slot(i).next_free;
    return i;
  }
  void grow_slots();
  void free_slot(std::uint32_t i) {
    Slot& s = slot(i);
    destroy_payload(s);
    s.next_free = free_head_;
    free_head_ = i;
  }
  void destroy_payload(Slot& s) {
    switch (s.kind) {
      case Kind::kCallback:
        s.u.fn.~EventFn();
        break;
      case Kind::kPacket:
        s.u.pe.~PacketEvent();
        break;
      case Kind::kEmpty:
        break;
    }
    s.kind = Kind::kEmpty;
  }
  [[nodiscard]] bool stale(const HeapEntry& e) {
    return slot(e.slot).gen != e.gen;
  }

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  // ---- routing / draining ------------------------------------------------

  /// Route an entry (its seq already claimed) to due_, a wheel bucket, or
  /// the far heap, based on its horizon.
  void push_entry(const HeapEntry& e);
  void due_insert(const HeapEntry& e);
  /// Refill due_ from the wheels/far heap until it holds the earliest
  /// pending event.  No-op while due_ already has entries.
  void ensure_due() {
    while (!due_.empty() && stale(due_.back())) {
      due_.pop_back();
      --entries_;
    }
    if (due_.empty()) refill_due();
  }
  void refill_due();
  /// Collect one near bucket into due_ (filter stale, sort by (at, seq)).
  void collect_near(int bucket);
  /// Jump the wheels forward to `target_block`, scattering its coarse
  /// bucket into the near wheel and migrating far-heap entries that the
  /// coarse horizon now covers.
  void advance_to_block(std::int64_t target_block);
  /// Pop due_.back() (already ensured non-stale) and dispatch it in place:
  /// the single-event tail shared by run_top() and run_top_batched().
  void dispatch_top();

  std::uint32_t alloc_node() {
    if (node_free_head_ == kNilNode) grow_nodes();
    const std::uint32_t i = node_free_head_;
    node_free_head_ = node(i).next;
    return i;
  }
  void grow_nodes();
  void free_node(std::uint32_t i) {
    node(i).next = node_free_head_;
    node_free_head_ = i;
  }
  void bucket_push(std::uint32_t* head, std::uint64_t* bitmap, int bucket,
                   const HeapEntry& e) {
    const std::uint32_t n = alloc_node();
    WheelNode& wn = node(n);
    wn.at = e.at;
    wn.seq = e.seq;
    wn.slot = e.slot;
    wn.gen = e.gen;
    wn.next = head[bucket];
    head[bucket] = n;
    bitmap[bucket >> 6] |= 1ull << (bucket & 63);
  }

  void far_push(const HeapEntry& e);
  void far_pop_root();
  void far_sift_up(std::size_t i);
  void far_sift_down(std::size_t i);
  void far_drop_stale();

  void maybe_compact();
  void compact();

  // ---- state -------------------------------------------------------------

  util::Arena* arena_;

  std::vector<Slot*> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t slot_count_ = 0;

  std::vector<WheelNode*> node_chunks_;
  std::uint32_t node_free_head_ = kNilNode;
  std::uint32_t node_count_ = 0;

  // Wheel position: cur_near_ is the next near slot (global index, not
  // modular) to drain; cur_block_ == cur_near_ >> kWheelBits.  Everything
  // strictly before cur_near_ lives in due_ (or has fired).
  std::int64_t cur_near_ = 0;
  std::int64_t cur_block_ = 0;

  std::uint32_t near_[kWheelSize];
  std::uint32_t coarse_[kWheelSize];
  std::uint64_t near_bm_[kWheelSize / 64] = {};
  std::uint64_t coarse_bm_[kWheelSize / 64] = {};

  /// Earliest pending events, sorted descending by (at, seq): back() is
  /// the global minimum.  Strictly earlier than anything in the wheels.
  std::vector<HeapEntry> due_;
  /// Events beyond the coarse horizon (≳4.3 s ahead): flat 4-ary min-heap.
  std::vector<HeapEntry> far_;
  /// Scratch for draining buckets without reallocating.
  std::vector<HeapEntry> scratch_;

  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  /// Entries stored across due_/wheels/far_, stale included (compaction
  /// trigger).
  std::size_t entries_ = 0;

  // State for the event currently executing under run_top().
  std::uint32_t running_slot_ = kNoSlot;
  bool resched_pending_ = false;
  Time resched_at_ = kTimeZero;
  std::uint64_t resched_seq_ = 0;
};

}  // namespace cgs::sim
