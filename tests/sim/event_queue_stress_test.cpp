// Randomised stress test of the pooled EventQueue against a brute-force
// reference model: interleaved push / cancel / reschedule / fire sequences
// must fire in exactly the (time, insertion-seq) order the model predicts,
// and stale handles must stay inert.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace cgs::sim {
namespace {

// One live-or-dead event in the reference model. `seq` mirrors the queue's
// internal sequence counter: push and reschedule each claim the next value.
struct ModelEvent {
  int tag = 0;
  Time at = kTimeZero;
  std::uint64_t seq = 0;
  bool live = false;
  EventId id = kInvalidEventId;
};

class Model {
 public:
  int push(Time at) {
    events_.push_back(
        ModelEvent{int(events_.size()), at, next_seq_++, true, kInvalidEventId});
    return events_.back().tag;
  }

  void cancel(int tag) { events_[std::size_t(tag)].live = false; }

  void reschedule(int tag, Time at) {
    ModelEvent& e = events_[std::size_t(tag)];
    e.at = at;
    e.seq = next_seq_++;
  }

  /// Tag of the next event to fire (lowest (at, seq)), or -1 when drained.
  int pop() {
    int best = -1;
    for (const ModelEvent& e : events_) {
      if (!e.live) continue;
      if (best == -1 || e.at < events_[std::size_t(best)].at ||
          (e.at == events_[std::size_t(best)].at &&
           e.seq < events_[std::size_t(best)].seq)) {
        best = e.tag;
      }
    }
    if (best != -1) events_[std::size_t(best)].live = false;
    return best;
  }

  [[nodiscard]] std::size_t live_count() const {
    std::size_t n = 0;
    for (const ModelEvent& e : events_) n += e.live ? 1 : 0;
    return n;
  }

  [[nodiscard]] ModelEvent& at(int tag) { return events_[std::size_t(tag)]; }
  [[nodiscard]] std::vector<int> live_tags() const {
    std::vector<int> tags;
    for (const ModelEvent& e : events_) {
      if (e.live) tags.push_back(e.tag);
    }
    return tags;
  }

 private:
  std::vector<ModelEvent> events_;
  std::uint64_t next_seq_ = 1;
};

TEST(EventQueueStress, MatchesReferenceModel) {
  Pcg32 rng(0xC0FFEE);
  EventQueue q;
  Model model;
  std::vector<int> fired;

  for (int op = 0; op < 20000; ++op) {
    const std::uint32_t dice = rng.next_bounded(100);
    if (dice < 45 || model.live_count() == 0) {
      // Push at a random time (ties are frequent on purpose: coarse grid).
      const Time at = Time(rng.next_bounded(64) * 1000);
      const int tag = model.push(at);
      model.at(tag).id = q.push(at, [tag, &fired] { fired.push_back(tag); });
      ASSERT_NE(model.at(tag).id, kInvalidEventId);
    } else if (dice < 60) {
      // Cancel a random live event.
      const auto tags = model.live_tags();
      const int tag = tags[rng.next_bounded(std::uint32_t(tags.size()))];
      q.cancel(model.at(tag).id);
      model.cancel(tag);
    } else if (dice < 70) {
      // Cancel an already-dead handle: must be a no-op.
      q.cancel(kInvalidEventId);
    } else if (dice < 85) {
      // Reschedule a random live event to a new random time.
      const auto tags = model.live_tags();
      const int tag = tags[rng.next_bounded(std::uint32_t(tags.size()))];
      const Time at = Time(rng.next_bounded(64) * 1000);
      const EventId moved = q.reschedule(model.at(tag).id, at);
      ASSERT_NE(moved, kInvalidEventId);
      model.at(tag).id = moved;
      model.reschedule(tag, at);
    } else {
      // Fire the earliest event and check it against the model.
      ASSERT_FALSE(q.empty());
      const std::size_t fired_before = fired.size();
      q.run_top();
      ASSERT_EQ(fired.size(), fired_before + 1);
      EXPECT_EQ(fired.back(), model.pop());
    }
    ASSERT_EQ(q.size(), model.live_count());
  }

  // Drain: remaining events must fire in exact model order.
  while (!q.empty()) {
    const std::size_t fired_before = fired.size();
    q.run_top();
    ASSERT_EQ(fired.size(), fired_before + 1);
    EXPECT_EQ(fired.back(), model.pop());
  }
  EXPECT_EQ(model.pop(), -1);
}

TEST(EventQueueStress, StaleHandlesAreInert) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.push(Time(1000), [&] { ++fired; });
  const EventId b = q.push(Time(2000), [&] { ++fired; });

  q.run_top();  // fires a
  EXPECT_EQ(fired, 1);
  q.cancel(a);                                     // stale: no-op
  EXPECT_EQ(q.reschedule(a, Time(5000)), kInvalidEventId);  // stale: refused
  EXPECT_EQ(q.size(), 1u);

  q.cancel(b);
  q.cancel(b);  // double cancel: no-op
  EXPECT_EQ(q.reschedule(b, Time(5000)), kInvalidEventId);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueStress, RescheduleKeepsCallback) {
  EventQueue q;
  int fired = 0;
  EventId id = q.push(Time(1000), [&] { ++fired; });
  id = q.reschedule(id, Time(3000));
  ASSERT_NE(id, kInvalidEventId);
  q.push(Time(2000), [] {});

  EXPECT_EQ(q.next_time(), Time(2000));
  q.run_top();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.next_time(), Time(3000));
  q.run_top();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, SlotReuseAfterHeavyChurn) {
  // Push/cancel far more events than any single snapshot holds: the slab
  // must recycle slots rather than grow per event.
  EventQueue q;
  std::vector<EventId> ids;
  for (int round = 0; round < 1000; ++round) {
    ids.clear();
    for (int i = 0; i < 16; ++i) {
      ids.push_back(q.push(Time(round * 100 + i), [] {}));
    }
    for (int i = 0; i < 16; i += 2) q.cancel(ids[std::size_t(i)]);
    while (!q.empty()) q.run_top();
  }
  EXPECT_EQ(q.pushed_total(), 16000u);
}

}  // namespace
}  // namespace cgs::sim
