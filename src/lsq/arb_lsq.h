// ARB: the Address Resolution Buffer of Franklin & Sohi [4], the banked
// baseline of the paper's Figure 1.
//
// N banks are selected by low-order line-address bits; each bank holds M
// rows ("addresses"), each row one cache-line address with slots for up to
// P instructions, P being the global in-flight memory-instruction cap
// (the paper: "there is space for N*M*P instructions but only P
// instructions are allowed in total").
//
// Instructions that find their bank's rows exhausted wait and retry
// (there is no AddrBuffer in the ARB); forward progress is guaranteed by
// the same deadlock-avoidance flush the core applies to SAMIE-LSQ.
//
// Hot-path representation (mirrors SamieLsq so the Figure-1 baseline is
// measured on equal footing):
//   * the seq -> location index is a flat ring-indexed SeqRingTable, not
//     an unordered_map — O(1), no hashing, no allocation;
//   * each bank keeps a multi-word valid bitmask over its rows and each
//     row one over its P slots, so row lookup, slot allocation,
//     disambiguation and frees are countr_zero scans over set bits only;
//   * the retry queue and the dispatched-age FIFO are reserved RingDeques
//     (the deques they replace allocated chunk nodes as ops streamed
//     through);
//   * occupancy is tracked by O(1) counters (rows_used / slots_placed),
//     cross-checked by recount_occupancy() in tests.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/ring_deque.h"
#include "src/common/seq_ring_table.h"
#include "src/lsq/lsq_interface.h"

namespace samie::lsq {

struct ArbConfig {
  std::uint32_t banks = 8;
  std::uint32_t rows_per_bank = 16;  ///< "addresses" per bank
  /// Global in-flight memory-instruction cap (= slots per row).
  std::uint32_t max_inflight = 128;
  std::uint32_t line_bytes = 32;
};

class ArbLsq final {
 public:
  /// Throws std::invalid_argument when banks, rows_per_bank or
  /// max_inflight is zero, or line_bytes is not a power of two <= 256.
  explicit ArbLsq(const ArbConfig& cfg);

  [[nodiscard]] bool can_dispatch(bool is_load) const;
  void on_dispatch(InstSeq seq, bool is_load);
  /// A conflicting placement waits in the retry FIFO: nothing is ever
  /// rejected.
  [[nodiscard]] std::uint32_t placement_headroom() const { return ~0U; }

  Placement on_address_ready(const MemOpDesc& op);
  void drain(std::vector<InstSeq>& newly_placed);
  [[nodiscard]] bool is_placed(InstSeq seq) const;

  [[nodiscard]] LoadPlan plan_load(InstSeq seq) const;
  /// The ARB caches no L1D location or translation.
  [[nodiscard]] CacheHints cache_hints(InstSeq /*seq*/) const {
    return CacheHints{};
  }
  bool on_cache_access_complete(InstSeq /*seq*/, std::uint32_t /*set*/,
                                std::uint32_t /*way*/) {
    return false;
  }
  void on_load_complete(InstSeq /*seq*/) {}
  void on_store_data_ready(InstSeq seq);

  void on_commit(InstSeq seq);
  void squash_from(InstSeq seq);
  void on_cache_line_replaced(std::uint32_t /*set*/) {}

  [[nodiscard]] OccupancySample occupancy() const;

  /// True when next cycle's drain() could differ from a no-op. A failed
  /// retry mutates nothing (try_place is read-only on failure and the ARB
  /// charges no retry energy), so once the FIFO head has been retried
  /// against unchanged state the queue is provably stuck until a commit
  /// or squash frees a slot — those clear `drain_blocked_`.
  [[nodiscard]] bool has_pending_work() const noexcept {
    return !waiting_.empty() && !drain_blocked_;
  }
  [[nodiscard]] std::uint64_t occupancy_epoch() const noexcept {
    return occ_epoch_;
  }

  [[nodiscard]] std::uint64_t placement_conflicts() const { return conflicts_; }
  [[nodiscard]] std::uint32_t rows_used() const { return rows_used_; }
  [[nodiscard]] std::uint32_t slots_placed() const { return slots_placed_; }
  /// Test hook: recomputes occupancy from the per-slot valid flags —
  /// deliberately not from the bitmasks, so it cross-checks mask and
  /// counter maintenance too (mirrors SamieLsq::recount_occupancy).
  [[nodiscard]] OccupancySample recount_occupancy() const;

 private:
  /// One instruction within a row. Booleans live in the packed
  /// SlotFlags status word (lsq_interface.h) — rows allocate
  /// max_inflight slots each, so the per-slot footprint matters here
  /// most of all three queues.
  struct Slot {
    InstSeq seq = kNoInst;
    InstSeq fwd_store = kNoInst;
    std::uint8_t offset = 0;  // within the line
    std::uint8_t size = 0;
    SlotFlags flags;  ///< valid / is_load / data_ready / fwd_full
  };
  struct Row {
    Addr line = 0;
    bool valid = false;
    std::uint32_t used = 0;
    /// Word w, bit i <=> slots[64w + i].valid (P can exceed one word).
    std::vector<std::uint64_t> slot_mask;
    std::vector<Slot> slots;  ///< max_inflight slots, allocated once
  };
  struct Loc {
    std::uint32_t bank = 0;
    std::uint32_t row = 0;
    std::uint32_t slot = 0;
  };

  [[nodiscard]] std::uint32_t bank_of(Addr line) const;
  [[nodiscard]] Row& row_at(std::uint32_t bank, std::uint32_t row) {
    return rows_[static_cast<std::size_t>(bank) * cfg_.rows_per_bank + row];
  }
  [[nodiscard]] const Row& row_at(std::uint32_t bank, std::uint32_t row) const {
    return rows_[static_cast<std::size_t>(bank) * cfg_.rows_per_bank + row];
  }
  /// Index of the first valid row in `bank` holding `line`, or a value
  /// >= rows_per_bank when absent.
  [[nodiscard]] std::uint32_t find_row(std::uint32_t bank, Addr line) const;
  bool try_place(const MemOpDesc& op);
  void disambiguate(const MemOpDesc& op, Row& row, std::uint32_t slot_idx);
  void free_slot(const Loc& loc);
  [[nodiscard]] const Slot* slot_of(InstSeq seq) const;
  [[nodiscard]] Slot* slot_of(InstSeq seq);

  ArbConfig cfg_;
  std::uint32_t line_shift_;
  std::uint32_t slot_words_;  ///< ceil(max_inflight / 64)
  std::uint32_t row_words_;   ///< ceil(rows_per_bank / 64)
  std::vector<Row> rows_;     ///< banks * rows_per_bank, row-major
  /// Per bank, `row_words_` words: word w bit i <=> row 64w+i valid.
  std::vector<std::uint64_t> row_masks_;
  RingDeque<MemOpDesc> waiting_;    ///< bank-conflict retry FIFO
  /// The waiting_ head failed a retry and nothing has freed a slot since
  /// (see has_pending_work).
  bool drain_blocked_ = false;
  SeqRingTable<Loc> where_;         ///< placed seq -> location
  /// Every dispatched, uncommitted memory instruction (age-ordered). The
  /// in-flight cap and squash handling key off this, so instructions
  /// squashed before their address was computed are accounted correctly.
  RingDeque<InstSeq> dispatched_;
  std::uint64_t conflicts_ = 0;
  /// Squash scratch: row indices that held squashed stores (the only
  /// rows where stale forwarding refs can survive; see squash_from).
  std::vector<std::uint32_t> squash_rows_scratch_;
  // O(1) occupancy counters, cross-checked by recount_occupancy().
  std::uint32_t rows_used_ = 0;
  std::uint32_t slots_placed_ = 0;
  std::uint64_t occ_epoch_ = 0;  ///< see occupancy_epoch()
};

static_assert(LoadStoreQueue<ArbLsq>);

}  // namespace samie::lsq
