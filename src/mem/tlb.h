// Fully-associative TLB with true-LRU replacement (paper: 128-entry
// fully-associative ITLB and DTLB, 1-cycle hits).
//
// Hot-path representation: a small direct-mapped *front array* caches
// the most recent vpn per low-index, so the common hit re-references a
// hot page with zero search work; the resident set and the true-LRU
// scan are touched only on front misses and evictions. The front array
// is a pure cache of the lookup, not an extra TLB level — hit/miss
// outcomes and LRU victims are bit-identical to the plain
// fully-associative model (asserted by a differential test):
//   * the front only ever holds pages currently resident in the TLB
//     (eviction invalidates the victim's front cell, reset clears all);
//   * recency ticks assigned on front hits are written into the front
//     cell only; the LRU victim scan reads the front cell's tick for
//     pages the front still holds, and a displaced front occupant's
//     tick is written back to the resident set — so every page's
//     last-use tick is exact, just stored lazily ("true LRU maintained
//     only on miss").
//
// The resident set is a flat array of (vpn, tick) pairs — 2 KB at the
// paper's 128 entries, L1-resident — so the true-LRU victim scan walks
// dense cache lines instead of chasing one line per hash node (eviction
// runs on every capacity miss). Lookup into the array stays O(1)
// through a vpn → slot index maintained across push/swap-erase: a
// linear find was measurably slower on TLB-thrashy programs, where the
// front-miss path runs per access. Ticks are unique (one per access),
// so the min-tick victim is unique and independent of storage order —
// the layout changes no outcome.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"

namespace samie::mem {

struct TlbConfig {
  std::uint32_t entries = 128;
  std::uint32_t page_bytes = 4096;
  Cycle hit_latency = 1;
  Cycle miss_penalty = 30;
};

class Tlb {
 public:
  /// Throws std::invalid_argument naming the TLB (`name`, e.g. "DTLB")
  /// and the field for zero `entries` or a `page_bytes` that is not a
  /// power of two.
  explicit Tlb(const TlbConfig& cfg, std::string_view name = "TLB");

  /// Translates; returns true on hit. Misses install the page (LRU evict).
  bool access(Addr vaddr);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] Cycle hit_latency() const { return cfg_.hit_latency; }
  [[nodiscard]] Cycle miss_penalty() const { return cfg_.miss_penalty; }

  void reset();

 private:
  struct FrontEntry {
    Addr vpn = 0;
    std::uint64_t tick = 0;
    bool valid = false;
  };
  /// A resident page. `tick` may be stale while the front holds the
  /// page; see effective_tick.
  struct Entry {
    Addr vpn = 0;
    std::uint64_t tick = 0;
  };
  // Power of two; sized 2x the paper's 128 resident pages so conflict
  // evictions from the front are rare. Any size is outcome-identical
  // (the front is a pure lookup cache; see the class comment).
  static constexpr std::uint32_t kFrontSize = 256;

  /// The freshest last-use tick of a resident page: the front cell's if
  /// the front holds it, the stored one otherwise.
  [[nodiscard]] std::uint64_t effective_tick(Addr vpn,
                                             std::uint64_t stored_tick) const {
    const FrontEntry& fe = front_[vpn & (kFrontSize - 1)];
    return fe.valid && fe.vpn == vpn ? fe.tick : stored_tick;
  }
  [[nodiscard]] Entry* find(Addr vpn);
  void install_front(Addr vpn, std::uint64_t tick);
  void evict_lru();
  void renormalize_ticks();

  TlbConfig cfg_;
  std::uint32_t page_shift_;
  /// Resident pages, unordered (ticks are unique, so no outcome depends
  /// on position). Dense: evictions swap-erase, with index_ tracking the
  /// moved entry's new slot.
  std::vector<Entry> entries_;
  /// vpn -> slot in entries_. Exactly the resident vpns.
  std::unordered_map<Addr, std::uint32_t> index_;
  std::array<FrontEntry, kFrontSize> front_{};
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace samie::mem
