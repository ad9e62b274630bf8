// SAMIE-LSQ: the set-associative, multiple-instruction-entry load/store
// queue — the paper's contribution (Section 3).
//
// Three structures:
//   * DistribLSQ — `banks` banks selected by low-order line-address bits,
//     each with `entries_per_bank` fully-associative entries; an entry
//     holds one cache-line address and up to `slots_per_entry`
//     instructions that access that line.
//   * SharedLSQ — a small fully-associative overflow structure with the
//     same entry format (configurably unbounded for the Figure 3 study).
//   * AddrBuffer — a FIFO for instructions that fit in neither; buffered
//     instructions cannot access the cache and retry with priority.
//
// Energy events are emitted per Table 5; the entry also caches the L1D
// (set, way) behind a presentBit and the DTLB translation (Section 3.4),
// which the core exploits through `cache_hints`.
//
// Hot-path representation (this is the simulator's per-memory-op fast
// path, so it mirrors the paper's constant-factor argument):
//   * occupancy bitmasks — each bank keeps a 64-bit valid mask over its
//     entries and each entry a 64-bit valid mask over its slots, so
//     placement, same-line visits and frees scan via countr_zero/popcount
//     instead of iterating every Entry/Slot;
//   * a flat ring-indexed in-flight table (SeqRingTable, shared with
//     ArbLsq) keyed by `InstSeq % window` replaces the former
//     `unordered_map<InstSeq, Loc>` — O(1) with no hashing or allocation
//     (the table doubles in the cold, pathological case of a residue
//     collision between live instructions);
//   * the AddrBuffer is a fixed ring of `addr_buffer_slots` descriptors,
//     not a deque — placement never allocates.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/ring_deque.h"
#include "src/common/seq_ring_table.h"
#include "src/energy/ledger.h"
#include "src/lsq/lsq_interface.h"

namespace samie::lsq {

struct SamieConfig {
  std::uint32_t banks = 64;
  std::uint32_t entries_per_bank = 2;  ///< <= 64 (bank occupancy bitmask)
  std::uint32_t slots_per_entry = 8;   ///< <= 64 (entry occupancy bitmask)
  std::uint32_t shared_entries = 8;
  /// Let the SharedLSQ grow without bound (Figure 3's measurement mode).
  bool unbounded_shared = false;
  std::uint32_t addr_buffer_slots = 64;
  /// Buffered placements attempted per cycle (FIFO order, stop at first
  /// failure; they have priority over newly computed addresses).
  std::uint32_t drain_width = 4;
  /// Must equal the L1D's line size (sim::make_lane checks).
  std::uint32_t line_bytes = 32;
  /// L1D set count, for the presentBit invalidation protocol (must equal
  /// the L1D's; sim::make_lane checks).
  std::uint32_t l1d_sets = 64;
  /// Initial size of the ring-indexed in-flight table (rounded up to a
  /// power of two). Collisions between live InstSeqs grow it; any value
  /// >= the core's ROB size never grows.
  std::uint32_t seq_window_hint = 1024;
};

class SamieLsq final {
 public:
  /// Ledger may be null (no accounting). Throws std::invalid_argument
  /// when entries_per_bank or slots_per_entry exceeds 64 (the bitmask
  /// width), banks, addr_buffer_slots or l1d_sets is 0, or line_bytes is
  /// not a power of two <= 256.
  SamieLsq(const SamieConfig& cfg, energy::SamieLsqLedger* ledger);

  [[nodiscard]] bool can_dispatch(bool) const { return true; }
  void on_dispatch(InstSeq, bool) {}
  /// Free AddrBuffer slots — the paper's §3.3 alternative: agen issues
  /// only while this is positive, so placement can never be rejected.
  /// Guarded against underflow: a configuration change or squash-ordering
  /// bug can leave more buffered ops than `addr_buffer_slots`; the
  /// headroom saturates at zero instead of wrapping around.
  [[nodiscard]] std::uint32_t placement_headroom() const {
    const auto used = static_cast<std::uint32_t>(buffer_.size());
    return used >= cfg_.addr_buffer_slots ? 0 : cfg_.addr_buffer_slots - used;
  }

  Placement on_address_ready(const MemOpDesc& op);
  void drain(std::vector<InstSeq>& newly_placed);
  [[nodiscard]] bool is_placed(InstSeq seq) const {
    return where_find(seq) != nullptr;
  }

  [[nodiscard]] LoadPlan plan_load(InstSeq seq) const;
  [[nodiscard]] CacheHints cache_hints(InstSeq seq) const;
  /// Caches (set, way) and the translation in the owning entry; always
  /// true.
  bool on_cache_access_complete(InstSeq seq, std::uint32_t set,
                                std::uint32_t way);
  void on_load_complete(InstSeq seq);
  void on_store_data_ready(InstSeq seq);

  void on_commit(InstSeq seq);
  void squash_from(InstSeq seq);
  void on_cache_line_replaced(std::uint32_t set);

  [[nodiscard]] OccupancySample occupancy() const;

  /// A non-empty AddrBuffer is always pending work: every drain() retry
  /// charges an AddrBuffer read (paper Table 5) even when the head fails
  /// to place, so cycles with buffered instructions can never be
  /// fast-forwarded without drifting the energy statistics.
  [[nodiscard]] bool has_pending_work() const noexcept {
    return !buffer_.empty();
  }
  [[nodiscard]] std::uint64_t occupancy_epoch() const noexcept {
    return occ_epoch_;
  }

  // -- SAMIE-specific observability ------------------------------------------
  [[nodiscard]] std::uint64_t buffered_placements() const { return buffered_; }
  [[nodiscard]] std::uint64_t present_bit_resets() const { return present_resets_; }
  [[nodiscard]] std::uint64_t agen_gated_cycles() const { return gated_; }
  void note_agen_gated() { ++gated_; }
  [[nodiscard]] const SamieConfig& config() const { return cfg_; }
  /// Test hook: recomputes every occupancy counter from scratch and
  /// returns it, for cross-checking the O(1) bitmask bookkeeping.
  [[nodiscard]] OccupancySample recount_occupancy() const;

 private:
  /// One instruction within an entry. Booleans live in the packed
  /// SlotFlags status word (lsq_interface.h) — the disambiguation and
  /// squash scans walk many slots per op, and the word keeps the record
  /// at 24 bytes instead of 32.
  struct Slot {
    InstSeq seq = kNoInst;
    InstSeq fwd_store = kNoInst;
    std::uint8_t offset = 0;
    std::uint8_t size = 0;
    SlotFlags flags;  ///< valid / is_load / data_ready / fwd_full
  };
  struct Entry {
    Addr line = 0;  ///< line address (byte address >> line_shift)
    bool valid = false;
    bool present = false;  ///< (set, way) cached and still trustworthy
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    bool translation = false;  ///< DTLB translation cached
    std::uint32_t used = 0;
    std::uint64_t slot_mask = 0;  ///< bit i <=> slots[i].valid
    std::vector<Slot> slots;
  };
  struct Bank {
    std::uint64_t valid_mask = 0;  ///< bit i <=> entries[i].valid
    /// Sum of `used` over the valid entries. Lets the placement search
    /// charge its fused age-search event (total ids compared across the
    /// bank) without touching the entries.
    std::uint32_t slots_used = 0;
    std::vector<Entry> entries;
  };
  enum class Where : std::uint8_t { kDistrib, kShared };
  struct Loc {
    Where where = Where::kDistrib;
    std::uint32_t bank = 0;   // distrib only
    std::uint32_t entry = 0;  // index within bank / shared vector
    std::uint32_t slot = 0;
  };

  [[nodiscard]] std::uint32_t bank_of(Addr line) const {
    return bank_mask_plus1_ != 0
               ? static_cast<std::uint32_t>(line & (bank_mask_plus1_ - 1))
               : static_cast<std::uint32_t>(line % cfg_.banks);
  }
  [[nodiscard]] Entry& entry_at(const Loc& loc) {
    return loc.where == Where::kDistrib ? banks_[loc.bank].entries[loc.entry]
                                        : shared_[loc.entry];
  }
  [[nodiscard]] const Entry& entry_at(const Loc& loc) const {
    return loc.where == Where::kDistrib ? banks_[loc.bank].entries[loc.entry]
                                        : shared_[loc.entry];
  }

  // -- in-flight table (SeqRingTable; see src/common/seq_ring_table.h) --------
  [[nodiscard]] const Loc* where_find(InstSeq seq) const {
    return where_.find(seq);
  }

  /// Performs the parallel bank+shared search, charges comparison energy,
  /// and either fills a slot (returns true) or reports no space.
  bool try_place(const MemOpDesc& op, bool from_buffer);
  void fill_slot(const MemOpDesc& op, const Loc& loc, bool new_entry);
  void disambiguate(const MemOpDesc& op, Loc self_loc);
  /// Visits every valid same-line entry in the op's bank and the shared
  /// structure (bitmask scan). `fn(entry)` returns void.
  template <typename Fn>
  void for_each_same_line(Addr line, Fn&& fn);
  /// Visits every valid shared entry (multi-word bitmask scan — the
  /// shared structure can be unbounded). One body serves both constness
  /// flavours: `Self` deduces as SamieLsq or const SamieLsq, so `fn`
  /// receives Entry& or const Entry& accordingly.
  template <typename Self, typename Fn>
  static void for_each_valid_shared_impl(Self& self, Fn&& fn);
  template <typename Fn>
  void for_each_valid_shared(Fn&& fn) {
    for_each_valid_shared_impl(*this, std::forward<Fn>(fn));
  }
  template <typename Fn>
  void for_each_valid_shared(Fn&& fn) const {
    for_each_valid_shared_impl(*this, std::forward<Fn>(fn));
  }

  void free_slot(const Loc& loc, InstSeq seq);
  void clear_forward_refs(Entry& e, InstSeq store);

  SamieConfig cfg_;
  energy::SamieLsqLedger* ledger_;
  std::uint32_t line_shift_;
  std::uint64_t bank_mask_plus1_ = 0;  ///< banks when pow2 (mask = banks-1)
  std::uint64_t full_entry_mask_;  ///< (1 << entries_per_bank) - 1
  std::uint64_t full_slot_mask_;   ///< (1 << slots_per_entry) - 1
  std::vector<Bank> banks_;
  std::vector<Entry> shared_;
  std::vector<std::uint64_t> shared_valid_;  ///< word i covers entries 64i..

  /// AddrBuffer: a reserved ring — FIFO retries, order-preserving squash
  /// compaction, no steady-state allocation.
  RingDeque<MemOpDesc> buffer_;

  // In-flight location table (power-of-two ring, see class comment).
  SeqRingTable<Loc> where_;

  // Reused scratch (squash paths) — no per-call allocation.
  std::vector<std::pair<Loc, InstSeq>> squash_scratch_;
  /// Lines of squashed stores: the only entries that can hold stale
  /// forwarding refs after the frees (see squash_from).
  std::vector<Addr> squash_lines_scratch_;

  // O(1) occupancy counters (see OccupancySample).
  std::uint32_t d_entries_used_ = 0;
  std::uint32_t d_slots_used_ = 0;
  std::uint32_t d_entries_full_ = 0;
  std::uint32_t s_entries_used_ = 0;
  std::uint32_t s_slots_used_ = 0;
  std::uint32_t s_entries_full_ = 0;
  std::uint32_t banks_full_ = 0;

  std::uint64_t buffered_ = 0;
  std::uint64_t present_resets_ = 0;
  std::uint64_t gated_ = 0;
  std::uint64_t occ_epoch_ = 0;  ///< see occupancy_epoch()
};

static_assert(LoadStoreQueue<SamieLsq>);

}  // namespace samie::lsq
