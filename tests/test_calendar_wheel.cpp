// Tests for the completion calendar wheel: O(1) schedule/pop with
// wrap-around, the refusal of an event beyond the span, and — the
// property the core's bit-identity depends on — same-cycle FIFO delivery
// identical to the (cycle, order) min-heap it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "src/common/calendar_wheel.h"

namespace samie {
namespace {

using Popped = std::vector<int>;

Popped pop_cycle(CalendarWheel<int>& w, Cycle now) {
  Popped out;
  w.pop_due(now, [&](int v) { out.push_back(v); });
  return out;
}

TEST(CalendarWheel, DeliversAtTheScheduledCycle) {
  CalendarWheel<int> w(16);
  w.schedule(0, 3, 42);
  EXPECT_TRUE(pop_cycle(w, 1).empty());
  EXPECT_TRUE(pop_cycle(w, 2).empty());
  EXPECT_EQ(pop_cycle(w, 3), (Popped{42}));
  EXPECT_TRUE(w.empty());
}

TEST(CalendarWheel, SameCycleEventsPopInScheduleOrder) {
  CalendarWheel<int> w(16);
  for (int i = 0; i < 10; ++i) w.schedule(0, 5, i);
  EXPECT_EQ(pop_cycle(w, 5), (Popped{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(CalendarWheel, PastAndPresentClampToNextCycle) {
  // The heap this replaced delivered such events at the *next* pop, since
  // the current cycle's pop had already run when they were scheduled.
  CalendarWheel<int> w(16);
  w.schedule(7, 7, 1);  // "now"
  w.schedule(7, 3, 2);  // the past
  EXPECT_EQ(pop_cycle(w, 8), (Popped{1, 2}));
}

TEST(CalendarWheel, WrapsAroundItsSpanRepeatedly) {
  CalendarWheel<int> w(8);
  ASSERT_EQ(w.span(), 8U);
  // Schedule and drain across many times the span; each event lands on
  // its own cycle even though bucket indices repeat every 8 cycles.
  Cycle now = 0;
  for (int round = 0; round < 100; ++round) {
    w.schedule(now, now + 5, round);
    for (Cycle c = now + 1; c <= now + 5; ++c) {
      const Popped got = pop_cycle(w, c);
      if (c == now + 5) {
        EXPECT_EQ(got, (Popped{round}));
      } else {
        EXPECT_TRUE(got.empty());
      }
    }
    now += 5;
  }
  EXPECT_TRUE(w.empty());
}

TEST(CalendarWheel, RefusesAnEventBeyondItsSpan) {
  // Bucket (at & 15) of an event 16 or more cycles ahead belongs to an
  // earlier cycle; the wheel throws instead of delivering it there.
  CalendarWheel<int> w(16);
  w.schedule(100, 115, 1);  // span - 1 ahead: the last cycle it holds
  EXPECT_THROW(w.schedule(100, 116, 2), std::logic_error);
  EXPECT_THROW(w.schedule(100, 1100, 3), std::logic_error);
  EXPECT_EQ(w.size(), 1U) << "a refused event is not scheduled";
  for (Cycle c = 101; c < 115; ++c) EXPECT_TRUE(pop_cycle(w, c).empty());
  EXPECT_EQ(pop_cycle(w, 115), (Popped{1}));
  EXPECT_TRUE(w.empty());
}

TEST(CalendarWheel, PopCallbackMaySchedule) {
  CalendarWheel<int> w(8);
  w.schedule(0, 2, 1);
  Popped all;
  for (Cycle c = 1; c <= 4; ++c) {
    w.pop_due(c, [&](int v) {
      all.push_back(v);
      if (v == 1) w.schedule(c, c + 2, 2);  // chain from inside the pop
    });
  }
  EXPECT_EQ(all, (Popped{1, 2}));
}

// The decisive property: against a reference (cycle, order) min-heap —
// the structure the core used before — a random schedule/pop interleaving
// must deliver the identical event sequence, including same-cycle order.
TEST(CalendarWheel, MatchesReferenceHeapOnRandomSchedules) {
  struct Ref {
    Cycle at;
    std::uint64_t order;
    int payload;
  };
  auto later = [](const Ref& a, const Ref& b) {
    return a.at > b.at || (a.at == b.at && a.order > b.order);
  };

  std::mt19937_64 rng(1234);
  CalendarWheel<int> wheel(16);  // small span: exercises the wrap
  std::vector<Ref> heap;
  std::uint64_t order = 0;
  int payload = 0;

  for (Cycle now = 0; now < 3000; ++now) {
    // Pop both structures for this cycle.
    Popped from_wheel = pop_cycle(wheel, now);
    Popped from_heap;
    while (!heap.empty() && heap.front().at <= now) {
      from_heap.push_back(heap.front().payload);
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
    }
    ASSERT_EQ(from_wheel, from_heap) << "divergence at cycle " << now;

    // Schedule a random burst: mostly short latencies, occasionally up
    // to the last cycle of the 16-cycle span.
    const int n = static_cast<int>(rng() % 4);
    for (int i = 0; i < n; ++i) {
      const Cycle delta =
          (rng() % 16 == 0) ? 13 + rng() % 3 : 1 + rng() % 12;
      wheel.schedule(now, now + delta, payload);
      heap.push_back(Ref{now + delta, order++, payload});
      std::push_heap(heap.begin(), heap.end(), later);
      ++payload;
    }
  }
}

TEST(CalendarWheel, NextEventCycleEmptyAndSingleton) {
  CalendarWheel<int> w(16);
  EXPECT_EQ(w.next_event_cycle(0), kNeverCycle);
  EXPECT_EQ(w.next_event_cycle(1234), kNeverCycle);
  w.schedule(10, 17, 1);
  EXPECT_EQ(w.next_event_cycle(10), 17U);
  EXPECT_EQ(w.next_event_cycle(17), 17U) << "events due *now* count";
  (void)pop_cycle(w, 17);
  EXPECT_EQ(w.next_event_cycle(18), kNeverCycle);
}

TEST(CalendarWheel, NextEventCycleWrapsTheBitmask) {
  CalendarWheel<int> w(16);
  // now = 14, event at 14 + 15 = 29: bucket 29 & 15 = 13 < start bucket
  // 14 — the scan must wrap through the word end and the low remainder.
  w.schedule(14, 29, 1);
  EXPECT_EQ(w.next_event_cycle(14), 29U);
  EXPECT_EQ(w.next_event_cycle(20), 29U);
  EXPECT_EQ(w.next_event_cycle(29), 29U);
}

TEST(CalendarWheel, NextEventCycleSpansLargerThanOneWord) {
  CalendarWheel<int> w(256);  // 4 occupancy words
  w.schedule(0, 200, 1);
  EXPECT_EQ(w.next_event_cycle(0), 200U);
  w.schedule(0, 70, 2);
  EXPECT_EQ(w.next_event_cycle(0), 70U);
  (void)pop_cycle(w, 70);
  EXPECT_EQ(w.next_event_cycle(70), 200U) << "start mid-word, hit later word";
  // Wrapped: now = 250, next event at 250 + 80 = 330, bucket 330 & 255 =
  // 74, below the start bucket.
  (void)pop_cycle(w, 200);
  w.schedule(250, 330, 3);
  EXPECT_EQ(w.next_event_cycle(250), 330U);
}

// Event-driven jumping: advance `now` straight to next_event_cycle and
// pop only there. Delivery (payload order included) must match the
// cycle-by-cycle reference heap — this is the engine's fast-forward
// contract.
TEST(CalendarWheel, JumpPoppingMatchesTheReferenceHeap) {
  struct Ref {
    Cycle at;
    std::uint64_t order;
    int payload;
  };
  auto later = [](const Ref& a, const Ref& b) {
    return a.at > b.at || (a.at == b.at && a.order > b.order);
  };

  std::mt19937_64 rng(99);
  CalendarWheel<int> wheel(16);
  std::vector<Ref> heap;
  std::uint64_t order = 0;
  int payload = 0;
  Cycle now = 0;

  for (int round = 0; round < 2000; ++round) {
    // Random burst at `now` (always at least one event early on so the
    // jump target exists).
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      const Cycle delta =
          (rng() % 8 == 0) ? 13 + rng() % 3 : 1 + rng() % 12;
      wheel.schedule(now, now + delta, payload);
      heap.push_back(Ref{now + delta, order++, payload});
      std::push_heap(heap.begin(), heap.end(), later);
      ++payload;
    }
    // Jump. The wheel's target must equal the heap's minimum.
    const Cycle target = wheel.next_event_cycle(now);
    ASSERT_FALSE(heap.empty());
    ASSERT_EQ(target, heap.front().at) << "round " << round;
    now = target;
    Popped from_heap;
    while (!heap.empty() && heap.front().at <= now) {
      from_heap.push_back(heap.front().payload);
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
    }
    ASSERT_EQ(pop_cycle(wheel, now), from_heap) << "round " << round;
  }
}

}  // namespace
}  // namespace samie
