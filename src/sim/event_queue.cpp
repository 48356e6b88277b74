#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace cgs::sim {

namespace {

/// Descending (time, seq) order: `a` fires strictly after `b`.  The due
/// staging vector is sorted with this so its back() is the global minimum.
inline bool entry_fires_after_impl(Time a_at, std::uint64_t a_seq, Time b_at,
                                   std::uint64_t b_seq) {
  if (a_at != b_at) return a_at > b_at;
  return a_seq > b_seq;
}

}  // namespace

EventQueue::EventQueue(util::Arena* arena) : arena_(arena) {
  for (int i = 0; i < kWheelSize; ++i) near_[i] = kNilNode;
  for (int i = 0; i < kWheelSize; ++i) coarse_[i] = kNilNode;
  // Pre-size the staging vectors so draining a typical bucket is
  // allocation-free from the first event (growth beyond this amortises).
  due_.reserve(256);
  scratch_.reserve(256);
}

EventQueue::~EventQueue() {
  // Destroy any still-pending payloads; the slabs themselves are either
  // heap chunks (freed here) or arena storage (reclaimed wholesale by the
  // arena's owner).
  for (std::uint32_t i = 0; i < slot_count_; ++i) destroy_payload(slot(i));
  if (arena_ == nullptr) {
    for (Slot* chunk : chunks_) delete[] chunk;
    for (WheelNode* chunk : node_chunks_) delete[] chunk;
  }
}

void EventQueue::grow_slots() {
  // Grow the slab by one fixed-address chunk; existing slots never move,
  // so callbacks executing in place stay valid while new events are
  // scheduled. Chunks are threaded onto the free list lowest-index-first
  // to keep slot assignment deterministic.
  Slot* chunk;
  if (arena_ != nullptr) {
    chunk = arena_->allocate_array<Slot>(kChunkSize);
    for (std::uint32_t i = 0; i < kChunkSize; ++i) ::new (chunk + i) Slot();
  } else {
    chunk = new Slot[kChunkSize];
  }
  chunks_.push_back(chunk);
  const std::uint32_t base = slot_count_;
  slot_count_ += kChunkSize;
  for (std::uint32_t i = kChunkSize; i-- > 0;) {
    chunk[i].next_free = free_head_;
    free_head_ = base + i;
  }
}

void EventQueue::grow_nodes() {
  WheelNode* chunk;
  if (arena_ != nullptr) {
    chunk = arena_->allocate_array<WheelNode>(kNodeChunkSize);
    for (std::uint32_t i = 0; i < kNodeChunkSize; ++i) {
      ::new (chunk + i) WheelNode();
    }
  } else {
    chunk = new WheelNode[kNodeChunkSize];
  }
  node_chunks_.push_back(chunk);
  const std::uint32_t base = node_count_;
  node_count_ += kNodeChunkSize;
  for (std::uint32_t i = kNodeChunkSize; i-- > 0;) {
    chunk[i].next = node_free_head_;
    node_free_head_ = base + i;
  }
}

void EventQueue::push_entry(const HeapEntry& e) {
  ++entries_;
  const std::int64_t n1 = near_index(e.at);
  if (entries_ == 1 && n1 - cur_near_ < kWheelSize) {
    // Empty-queue fast path (single-timer and ping-pong workloads): every
    // tier is empty, so stage the entry straight into due_ and advance the
    // wheel cursor past it.  No node traffic, no bitmap scans — push/pop
    // degenerates to a vector push/pop, matching a heap of one.  Jumping
    // cur_near_ is safe precisely because nothing else is stored: the
    // "due_ strictly earlier than the wheels" invariant holds trivially,
    // and later pushes route against the advanced cursor as usual.  The
    // jump is capped at one block span: advancing the cursor past a
    // far-future event would force every subsequent push through
    // due_insert's binary insert until the clock caught up.
    if (n1 >= cur_near_) {
      cur_near_ = n1 + 1;
      cur_block_ = cur_near_ >> kWheelBits;
    }
    due_.push_back(e);
    return;
  }
  if (n1 < cur_near_) {
    // Its near slot was already drained (or it's in the past): stage it
    // directly into the sorted due vector.
    due_insert(e);
    return;
  }
  const std::int64_t b = n1 >> kWheelBits;
  if (b == cur_block_) {
    bucket_push(near_, near_bm_, int(n1 & kWheelMask), e);
    return;
  }
  if (b - cur_block_ < kWheelSize) {
    bucket_push(coarse_, coarse_bm_, int(b & kWheelMask), e);
    return;
  }
  far_push(e);
}

void EventQueue::due_insert(const HeapEntry& e) {
  const auto fires_after = [](const HeapEntry& a, const HeapEntry& b) {
    return entry_fires_after_impl(a.at, a.seq, b.at, b.seq);
  };
  due_.insert(std::lower_bound(due_.begin(), due_.end(), e, fires_after), e);
}

void EventQueue::collect_near(int bucket) {
  std::uint32_t n = near_[bucket];
  near_[bucket] = kNilNode;
  near_bm_[bucket >> 6] &= ~(1ull << (bucket & 63));
  // Simulation traffic is sparse relative to 65.5 µs slots (~1.3 events
  // per drained bucket in the testbed), so the single-node case is the hot
  // path: no scratch staging, no sort.
  {
    const WheelNode& wn = node(n);
    if (wn.next == kNilNode) {
      const HeapEntry e{wn.at, wn.seq, wn.slot, wn.gen};
      free_node(n);
      if (stale(e)) {
        --entries_;  // reaped; a live due entry keeps its count
      } else {
        due_.push_back(e);
      }
      return;
    }
  }
  scratch_.clear();
  do {
    const WheelNode& wn = node(n);
    const std::uint32_t next = wn.next;
    const HeapEntry e{wn.at, wn.seq, wn.slot, wn.gen};
    free_node(n);
    if (stale(e)) {
      --entries_;
    } else {
      scratch_.push_back(e);
    }
    n = next;
  } while (n != kNilNode);
  if (scratch_.empty()) return;
  // Multi-node buckets are short chains; insertion sort beats std::sort's
  // dispatch overhead until well past the sizes seen in practice.
  if (scratch_.size() <= 16) {
    for (std::size_t i = 1; i < scratch_.size(); ++i) {
      const HeapEntry e = scratch_[i];
      std::size_t j = i;
      while (j > 0 && entry_fires_after_impl(e.at, e.seq, scratch_[j - 1].at,
                                             scratch_[j - 1].seq)) {
        scratch_[j] = scratch_[j - 1];
        --j;
      }
      scratch_[j] = e;
    }
  } else {
    std::sort(scratch_.begin(), scratch_.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                return entry_fires_after_impl(a.at, a.seq, b.at, b.seq);
              });
  }
  // refill_due() only drains buckets while due_ is empty, so this is the
  // whole staging content.
  due_.insert(due_.end(), scratch_.begin(), scratch_.end());
}

void EventQueue::advance_to_block(std::int64_t target) {
  assert(target > cur_block_);
  cur_block_ = target;
  cur_near_ = target << kWheelBits;
  // Far-heap entries the coarse horizon now covers migrate into the
  // wheels (the target block's own entries go straight to the near wheel
  // via push_entry's routing).
  far_drop_stale();
  while (!far_.empty() && block_index(far_[0].at) - cur_block_ < kWheelSize) {
    const HeapEntry e = far_[0];
    far_pop_root();
    --entries_;
    push_entry(e);
    far_drop_stale();
  }
  // Scatter the target block's coarse bucket across the near wheel.
  const int bucket = int(cur_block_ & kWheelMask);
  std::uint32_t n = coarse_[bucket];
  coarse_[bucket] = kNilNode;
  coarse_bm_[bucket >> 6] &= ~(1ull << (bucket & 63));
  while (n != kNilNode) {
    const WheelNode& wn = node(n);
    const std::uint32_t next = wn.next;
    const HeapEntry e{wn.at, wn.seq, wn.slot, wn.gen};
    free_node(n);
    --entries_;
    if (!stale(e)) push_entry(e);
    n = next;
  }
}

void EventQueue::refill_due() {
  if (live_count_ == 0) return;
  while (due_.empty()) {
    if ((cur_near_ >> kWheelBits) == cur_block_) {
      // Find the next non-empty near bucket in the current block.  Bits
      // below cur_near_'s own bucket are impossible: those slots were
      // cleared when drained, and later pushes for them go to due_.
      const int start = int(cur_near_ & kWheelMask);
      int found = -1;
      for (int w = start >> 6; w < kWheelSize / 64; ++w) {
        std::uint64_t word = near_bm_[w];
        if (w == (start >> 6)) word &= ~std::uint64_t(0) << (start & 63);
        if (word != 0) {
          found = (w << 6) + std::countr_zero(word);
          break;
        }
      }
      if (found >= 0) {
        collect_near(found);
        cur_near_ = (cur_block_ << kWheelBits) + found + 1;
        continue;
      }
    }
    // Current block exhausted: jump to the earliest block that still has
    // entries — the nearest non-empty coarse bucket or the far-heap top.
    std::int64_t target = -1;
    for (int w = 0; w < kWheelSize / 64; ++w) {
      std::uint64_t word = coarse_bm_[w];
      while (word != 0) {
        const int b = (w << 6) + std::countr_zero(word);
        word &= word - 1;
        // Bucket b holds the unique block ≡ b (mod 256) in
        // (cur_block_, cur_block_ + 255].
        const std::int64_t delta =
            ((b - cur_block_) & kWheelMask) == 0
                ? kWheelSize
                : ((b - cur_block_) & kWheelMask);
        const std::int64_t blk = cur_block_ + delta;
        if (target < 0 || blk < target) target = blk;
      }
    }
    far_drop_stale();
    if (!far_.empty()) {
      const std::int64_t fb = block_index(far_[0].at);
      if (target < 0 || fb < target) target = fb;
    }
    if (target < 0) {
      // live_count_ > 0 guarantees a live entry exists somewhere.
      assert(false && "live events but no populated tier");
      return;
    }
    advance_to_block(target);
  }
}

void EventQueue::push_packet(Time at, net::PacketSink* sink,
                             net::PacketPtr pkt) {
  const std::uint32_t i = alloc_slot();
  Slot& s = slot(i);
  ::new (&s.u.pe) PacketEvent{std::move(pkt), sink};
  s.kind = Kind::kPacket;
  push_entry(HeapEntry{at, next_seq_++, i, s.gen});
  ++live_count_;
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const std::uint32_t i = std::uint32_t(id >> 32) - 1;
  if (i >= slot_count_) return;
  Slot& s = slot(i);
  if (s.gen != std::uint32_t(id)) return;  // already fired or cancelled
  if (i == running_slot_) {
    // Cancelling the in-flight reschedule of the currently executing
    // event: just drop the pending re-push; the slot is released (and its
    // callback destroyed) only after the callback returns.
    resched_pending_ = false;
    return;
  }
  ++s.gen;  // stored entries for this firing are now stale
  free_slot(i);
  --live_count_;
  maybe_compact();
}

EventId EventQueue::reschedule(EventId id, Time at) {
  if (id == kInvalidEventId) return kInvalidEventId;
  const std::uint32_t i = std::uint32_t(id >> 32) - 1;
  if (i >= slot_count_) return kInvalidEventId;
  Slot& s = slot(i);
  if (s.gen != std::uint32_t(id)) return kInvalidEventId;
  if (i == running_slot_) {
    resched_at_ = at;
    resched_seq_ = next_seq_++;
    resched_pending_ = true;
    return id;
  }
  ++s.gen;  // the old stored entry goes stale; lazy deletion reaps it
  push_entry(HeapEntry{at, next_seq_++, i, s.gen});
  maybe_compact();
  return make_id(i, s.gen);
}

EventId EventQueue::reschedule_current(Time at) {
  assert(running_slot_ != kNoSlot &&
         "reschedule_current() outside a run_top() callback");
  resched_at_ = at;
  // The sequence number is claimed now, not at the deferred re-push, so
  // events scheduled later in the same callback order after this one —
  // identical to the old cancel+push timer behaviour.
  resched_seq_ = next_seq_++;
  resched_pending_ = true;
  return make_id(running_slot_, slot(running_slot_).gen);
}

void EventQueue::run_top() {
  ensure_due();
  assert(!due_.empty() && "run_top() on empty queue");
  const HeapEntry top = due_.back();
  due_.pop_back();
  --entries_;
  Slot& s = slot(top.slot);
  ++s.gen;  // the fired handle is stale from here on (cancel = no-op)
  --live_count_;
  if (s.kind == Kind::kPacket) {
    // Typed delivery: release the slot first so the handler's own pushes
    // can reuse it, then dispatch with no closure machinery at all.
    PacketEvent pe = std::move(s.u.pe);
    free_slot(top.slot);
    pe.sink->handle_packet(std::move(pe.pkt));
    return;
  }
  running_slot_ = top.slot;
  resched_pending_ = false;
  s.u.fn();  // slot storage is chunk-stable; pushes inside never move it
  running_slot_ = kNoSlot;
  if (resched_pending_) {
    // In-place periodic path: the callback stays in its slot untouched.
    push_entry(HeapEntry{resched_at_, resched_seq_, top.slot, s.gen});
    ++live_count_;
  } else {
    free_slot(top.slot);
  }
}

void EventQueue::far_push(const HeapEntry& e) {
  far_.push_back(e);
  far_sift_up(far_.size() - 1);
}

void EventQueue::far_pop_root() {
  far_[0] = far_.back();
  far_.pop_back();
  if (!far_.empty()) far_sift_down(0);
}

void EventQueue::far_drop_stale() {
  while (!far_.empty() && stale(far_[0])) {
    far_pop_root();
    --entries_;
  }
}

void EventQueue::far_sift_up(std::size_t i) {
  const HeapEntry e = far_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(e, far_[parent])) break;
    far_[i] = far_[parent];
    i = parent;
  }
  far_[i] = e;
}

void EventQueue::far_sift_down(std::size_t i) {
  const std::size_t n = far_.size();
  const HeapEntry e = far_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(far_[c], far_[best])) best = c;
    }
    if (!before(far_[best], e)) break;
    far_[i] = far_[best];
    i = best;
  }
  far_[i] = e;
}

void EventQueue::maybe_compact() {
  // Lazy deletion can leave the tiers dominated by stale entries under
  // cancel-heavy workloads (RTO timers re-armed per ACK). When stale
  // entries outnumber live ones by 2x, sweep every tier and re-route the
  // survivors in O(n).
  if (entries_ < 256 || entries_ <= 2 * live_count_) return;
  compact();
}

void EventQueue::compact() {
  scratch_.clear();
  for (const HeapEntry& e : due_) {
    if (!stale(e)) scratch_.push_back(e);
  }
  for (const HeapEntry& e : far_) {
    if (!stale(e)) scratch_.push_back(e);
  }
  const auto drain_wheel = [this](std::uint32_t* head, std::uint64_t* bitmap) {
    // Occupancy-bitmap walk: only populated buckets are touched.
    for (int w = 0; w < kWheelSize / 64; ++w) {
      std::uint64_t word = bitmap[w];
      bitmap[w] = 0;
      while (word != 0) {
        const int b = (w << 6) + std::countr_zero(word);
        word &= word - 1;
        std::uint32_t n = head[b];
        head[b] = kNilNode;
        while (n != kNilNode) {
          const WheelNode& wn = node(n);
          const std::uint32_t next = wn.next;
          const HeapEntry e{wn.at, wn.seq, wn.slot, wn.gen};
          free_node(n);
          if (!stale(e)) scratch_.push_back(e);
          n = next;
        }
      }
    }
  };
  drain_wheel(near_, near_bm_);
  drain_wheel(coarse_, coarse_bm_);
  due_.clear();
  far_.clear();
  entries_ = 0;
  // Re-routing keeps each survivor's claimed seq, so the total order (and
  // every golden trace) is untouched; only the storage tier changes.
  for (const HeapEntry& e : scratch_) push_entry(e);
  scratch_.clear();
}

}  // namespace cgs::sim
