// CalendarWheel<Payload>: an O(1) timing wheel for cycle-granular event
// scheduling (Brown's calendar queue, the structure behind gem5-style
// event schedulers).
//
// The simulator schedules every completion a bounded number of cycles
// ahead (a functional-unit or memory latency), so a wheel whose span
// exceeds that bound serves schedule and pop in O(1): bucket index is
// `at & (span - 1)`, and the per-cycle pop drains exactly the bucket of
// the current cycle. The owner sizes the span above its largest latency
// (core::detail::completion_wheel_span); schedule() throws
// std::logic_error for an event at or beyond the span rather than let it
// land in the bucket of an earlier cycle.
//
// Ordering contract (the reason this can replace a (cycle, order)
// min-heap bit-identically): events due the same cycle pop in schedule
// order. Each event goes straight into its cycle's bucket, so bucket
// appends are in schedule order by construction.
//
// Invalidation is the caller's job: popped payloads may be stale (the
// instruction completed another way, was squashed, or its ROB slot was
// re-dispatched). Callers attach a generation token to the payload and
// drop events whose token no longer matches — O(1), so squashes never
// need to walk the wheel.
//
// Fast-forward support: the wheel keeps a bitmask with one bit per
// bucket (bit set <=> bucket non-empty), so `next_event_cycle(now)`
// finds the earliest scheduled event in O(span/64) words. An
// event-driven caller may then jump its clock straight to that cycle and
// call pop_due there — skipping the pops of provably-empty cycles. The
// only requirement is that the caller never jumps *past* a non-empty
// bucket (next_event_cycle by construction never asks it to): buckets
// between `now` and the target are empty, so the per-cycle pop they
// would have received is a no-op.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace samie {

template <typename Payload>
class CalendarWheel {
 public:
  /// `min_span` must exceed the largest (at - now) the caller will ever
  /// schedule; it is rounded up to a power of two.
  explicit CalendarWheel(std::size_t min_span = 256)
      : span_(std::bit_ceil(std::max<std::size_t>(min_span, 2))),
        mask_(span_ - 1),
        buckets_(span_),
        occupancy_((span_ + 63) / 64, 0) {}

  [[nodiscard]] std::size_t span() const noexcept { return span_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Cycle of the earliest scheduled event at or after `now` (including
  /// events due exactly at `now`), or kNeverCycle when the wheel is
  /// empty. O(span/64): a wrapped scan over the occupancy bitmask.
  /// Precondition (the pop_due contract): every non-empty bucket holds a
  /// cycle in [now, now + span), which holds as long as the caller popped
  /// — or fast-forwarded over provably-empty cycles to — every cycle
  /// before `now`.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const noexcept {
    const std::size_t delta = next_nonempty_bucket(now);
    return delta == span_ ? kNeverCycle : now + delta;
  }

  /// Distance (in cycles) from `now` to the first non-empty bucket,
  /// scanning buckets in the cyclic order now, now+1, ..., now+span-1;
  /// returns span() when every bucket is empty.
  [[nodiscard]] std::size_t next_nonempty_bucket(Cycle now) const noexcept {
    const std::size_t start = static_cast<std::size_t>(now & mask_);
    // First (possibly partial) word: only bits at or above `start`.
    std::size_t wi = start / 64;
    std::uint64_t w = occupancy_[wi] & (~0ULL << (start % 64));
    if (w != 0) return bit_index(wi, w) - start;
    // Forward words, then wrap; the start word's low bits come last.
    const std::size_t words = occupancy_.size();
    for (std::size_t step = 1; step <= words; ++step) {
      wi = (start / 64 + step) % words;
      w = occupancy_[wi];
      if (step == words) w &= ~(~0ULL << (start % 64));  // low remainder
      if (w != 0) {
        const std::size_t bucket = bit_index(wi, w);
        return (bucket + span_ - start) & mask_;
      }
    }
    return span_;
  }

  /// Schedules `payload` for cycle `at`. `now` is the current cycle; the
  /// caller must pop every cycle (pop_due(now), pop_due(now + 1), ...).
  /// An `at` in the past or present is clamped to `now + 1` — the same
  /// cycle the heap this replaced would have delivered it, since events
  /// scheduled after the current pop were only ever seen by the next one.
  /// Throws std::logic_error when `at - now` is span() or more: that
  /// event's bucket belongs to an earlier cycle.
  void schedule(Cycle now, Cycle at, Payload payload) {
    if (at <= now) at = now + 1;
    if (at - now >= span_) refuse(at - now);
    buckets_[at & mask_].push_back(Event{at, payload});
    mark_bucket(at & mask_);
    ++size_;
  }

  /// Delivers every event due at `now` (in schedule order) to
  /// `fn(payload)`. `fn` may schedule new events; they land in other
  /// buckets because schedule() never targets `now`.
  template <typename Fn>
  void pop_due(Cycle now, Fn&& fn) {
    std::vector<Event>& b = buckets_[now & mask_];
    for (const Event& ev : b) {
      assert(ev.at == now && "wheel invariant: bucket holds one cycle");
      fn(ev.payload);
    }
    size_ -= b.size();
    b.clear();
    clear_bucket(now & mask_);
  }

 private:
  struct Event {
    Cycle at = 0;  ///< checked against the popping cycle (assert only)
    Payload payload{};
  };

  [[noreturn, gnu::cold, gnu::noinline]] void refuse(Cycle ahead) const {
    throw std::logic_error("CalendarWheel: an event " + std::to_string(ahead) +
                           " cycles ahead is beyond the span of " +
                           std::to_string(span_));
  }
  void mark_bucket(std::size_t b) noexcept {
    occupancy_[b / 64] |= 1ULL << (b % 64);
  }
  void clear_bucket(std::size_t b) noexcept {
    occupancy_[b / 64] &= ~(1ULL << (b % 64));
  }
  [[nodiscard]] static std::size_t bit_index(std::size_t word,
                                             std::uint64_t bits) noexcept {
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }

  std::size_t span_;
  std::size_t mask_;
  std::vector<std::vector<Event>> buckets_;
  /// Bit b <=> buckets_[b] non-empty (the next_event_cycle scan).
  std::vector<std::uint64_t> occupancy_;
  std::size_t size_ = 0;
};

}  // namespace samie
