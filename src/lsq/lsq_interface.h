// The load/store-queue contract the out-of-order core drives: the
// `LoadStoreQueue` concept at the bottom of this file lists exactly the
// calls core::Core makes. ConventionalLsq, ArbLsq and SamieLsq satisfy
// it with plain member functions (each static_asserts it), and the core
// binds its queue at compile time — the queues share no base class.
//
// Protocol (enforced by the core, tested in tests/test_lsq_*):
//   1. `can_dispatch` / `on_dispatch` at rename time (the conventional LSQ
//      allocates its age-ordered entry here; banked LSQs only track
//      occupancy caps).
//   2. When the address is computed the core calls `on_address_ready`.
//      The LSQ performs placement + disambiguation and returns kPlaced, or
//      kBuffered when the instruction must wait (SAMIE AddrBuffer, ARB
//      bank conflict). Buffered instructions are retried by `drain()`
//      every cycle with priority and surface through its output list.
//   3. A placed load's execution strategy comes from `plan_load`:
//      access the cache, forward from a store, or wait. Plans are
//      *recomputed on demand* and always reflect current queue state.
//   4. Store-to-load ordering: the core lets a load touch memory only when
//      every older store is placed (the paper's readyBit; see DESIGN.md
//      "Interpretation decisions").
//   5. `on_commit` releases the instruction; `squash_from` implements
//      branch-mispredict and deadlock-avoidance flushes.
#pragma once

#include <concepts>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace samie::lsq {

/// A memory instruction as the LSQ sees it at address-ready time.
struct MemOpDesc {
  InstSeq seq = kNoInst;
  Addr addr = 0;
  std::uint8_t size = 8;
  bool is_load = true;
  /// Stores: data already available at placement time.
  bool data_ready = false;
};

struct Placement {
  enum class Status : std::uint8_t {
    kPlaced,    ///< resident in the queue, disambiguation done
    kBuffered,  ///< waiting (AddrBuffer / ARB conflict); drain() will retry
    kRejected,  ///< no space anywhere — caller must prevent this by gating
  };
  Status status = Status::kRejected;
};

/// How a placed, ordering-eligible load should execute.
struct LoadPlan {
  enum class Kind : std::uint8_t {
    kCacheAccess,   ///< no older in-flight store conflicts: go to memory
    kForwardReady,  ///< fully covered by an older store whose data is ready
    kForwardWait,   ///< fully covered; wait for the store's data
    kWaitCommit,    ///< partially covered; wait until the store commits
  };
  Kind kind = Kind::kCacheAccess;
  /// The store involved (forward source or blocker), if any.
  InstSeq store = kNoInst;
};

/// Packed per-slot status word shared by the three queues' slot/entry
/// records. The disambiguation and occupancy scans are bitmask walks
/// over slots, so the slot records themselves are laid out for density:
/// one byte of flags with named accessors instead of four or five
/// scattered bools (which also kept ConventionalLsq::Entry and the
/// banked queues' Slot a pointer-size smaller). Bit assignments are an
/// implementation detail; only the accessors are used.
class SlotFlags {
 public:
  [[nodiscard]] bool valid() const noexcept { return get(kValid); }
  [[nodiscard]] bool is_load() const noexcept { return get(kIsLoad); }
  [[nodiscard]] bool data_ready() const noexcept { return get(kDataReady); }
  [[nodiscard]] bool fwd_full() const noexcept { return get(kFwdFull); }
  [[nodiscard]] bool addr_known() const noexcept { return get(kAddrKnown); }

  void set_valid(bool v) noexcept { put(kValid, v); }
  void set_is_load(bool v) noexcept { put(kIsLoad, v); }
  void set_data_ready(bool v) noexcept { put(kDataReady, v); }
  void set_fwd_full(bool v) noexcept { put(kFwdFull, v); }
  void set_addr_known(bool v) noexcept { put(kAddrKnown, v); }

  /// One-write initialization at placement time (avoids five RMW ops).
  static SlotFlags make(bool valid, bool is_load, bool data_ready) noexcept {
    SlotFlags f;
    f.bits_ = static_cast<std::uint8_t>((valid ? kValid : 0U) |
                                        (is_load ? kIsLoad : 0U) |
                                        (data_ready ? kDataReady : 0U));
    return f;
  }

 private:
  static constexpr std::uint8_t kValid = 1U << 0;
  static constexpr std::uint8_t kIsLoad = 1U << 1;
  static constexpr std::uint8_t kDataReady = 1U << 2;
  static constexpr std::uint8_t kFwdFull = 1U << 3;
  /// Conventional LSQ only (address at dispatch+agen).
  static constexpr std::uint8_t kAddrKnown = 1U << 4;
  [[nodiscard]] bool get(std::uint8_t bit) const noexcept {
    return (bits_ & bit) != 0;
  }
  void put(std::uint8_t bit, bool v) noexcept {
    bits_ = static_cast<std::uint8_t>(v ? (bits_ | bit) : (bits_ & ~bit));
  }
  std::uint8_t bits_ = 0;
};

/// SAMIE's cached L1D location + translation (paper §3.4).
struct CacheHints {
  bool way_known = false;
  std::uint32_t set = 0;
  std::uint32_t way = 0;
  bool translation_known = false;
};

/// O(1) occupancy snapshot, taken once per cycle by the simulator for the
/// active-area integration (Figures 11/12) and the occupancy figures (3/4).
struct OccupancySample {
  // Conventional / unbounded.
  std::uint32_t entries_used = 0;
  // SAMIE DistribLSQ.
  std::uint32_t distrib_entries_used = 0;
  std::uint32_t distrib_slots_used = 0;
  std::uint32_t distrib_banks_full = 0;    ///< banks with every entry in use
  std::uint32_t distrib_entries_full = 0;  ///< entries with every slot in use
  // SAMIE SharedLSQ.
  std::uint32_t shared_entries_used = 0;
  std::uint32_t shared_slots_used = 0;
  std::uint32_t shared_entries_full = 0;
  // SAMIE AddrBuffer (or ARB wait queue).
  std::uint32_t buffer_used = 0;

  /// Equality lets per-cycle consumers run-length-batch identical
  /// consecutive samples (occupancy changes much slower than cycles).
  [[nodiscard]] friend bool operator==(const OccupancySample&,
                                       const OccupancySample&) = default;
};

/// Byte-range helpers for disambiguation.
[[nodiscard]] constexpr bool ranges_overlap(Addr a, std::uint32_t asz, Addr b,
                                            std::uint32_t bsz) noexcept {
  return a < b + bsz && b < a + asz;
}
/// True when [b, b+bsz) fully covers [a, a+asz) — a store covering a load.
[[nodiscard]] constexpr bool range_covers(Addr a, std::uint32_t asz, Addr b,
                                          std::uint32_t bsz) noexcept {
  return b <= a && a + asz <= b + bsz;
}

/// The queue contract: every call core::Core makes, with the result
/// type it relies on. Nothing else is required — accessors the core never
/// calls (is_placed, recount_occupancy, per-queue counters) are the
/// queues' own business and tests'.
template <typename Q>
concept LoadStoreQueue = requires(Q& q, const Q& cq, InstSeq seq,
                                  bool is_load, const MemOpDesc& op,
                                  std::vector<InstSeq>& newly_placed,
                                  std::uint32_t set, std::uint32_t way) {
  // -- dispatch stage ---------------------------------------------------------
  { cq.can_dispatch(is_load) } -> std::same_as<bool>;
  q.on_dispatch(seq, is_load);
  /// How many additional address computations may safely be in flight:
  /// the number of placements guaranteed not to be rejected. The core
  /// reserves one unit per issued-but-unresolved address computation so
  /// several agens completing together can never overflow the AddrBuffer
  /// (paper §3.3). ~0U for queues that never reject a placement.
  { cq.placement_headroom() } -> std::same_as<std::uint32_t>;

  // -- address-ready / placement ----------------------------------------------
  { q.on_address_ready(op) } -> std::same_as<Placement>;
  /// Retry buffered instructions (called once per cycle, before issue);
  /// appends the seqs that became placed this cycle.
  q.drain(newly_placed);
  /// True when the next drain() could differ from a no-op. The core skips
  /// drain() and lets the cycle loop fast-forward only while this is
  /// false, so it must never be false while a drain would place or
  /// charge anything.
  { cq.has_pending_work() } -> std::same_as<bool>;

  // -- load execution ---------------------------------------------------------
  { cq.plan_load(seq) } -> std::same_as<LoadPlan>;
  { cq.cache_hints(seq) } -> std::same_as<CacheHints>;
  /// The load/store touched the L1D at (set, way). Returns true when the
  /// queue now caches that location (SAMIE: the owning entry keeps the
  /// location and the translation), so the core sets the cache-side
  /// presentBit (§3.4).
  { q.on_cache_access_complete(seq, set, way) } -> std::same_as<bool>;
  /// A load finished (its datum is written into the queue).
  q.on_load_complete(seq);
  /// A store's data became available.
  q.on_store_data_ready(seq);

  // -- retirement / recovery --------------------------------------------------
  q.on_commit(seq);
  /// Remove `seq` and everything younger (squash).
  q.squash_from(seq);
  /// L1D replaced a line in `set`: reset potentially-affected presentBits.
  q.on_cache_line_replaced(set);

  // -- observability ----------------------------------------------------------
  /// O(1); the core samples it once per stepped cycle.
  { cq.occupancy() } -> std::same_as<OccupancySample>;
};

}  // namespace samie::lsq
