// The baseline: a fully-associative, age-ordered load/store queue
// (paper §4.2: 128 entries; a load compares only against older stores
// whose address is known, a store only against younger loads with known
// addresses; matching loads forward from stores).
//
// With `entries >= rob_size` this doubles as the *unbounded* LSQ used as
// the normalization baseline of Figure 1 (sim's UnboundedBundle).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/ring_deque.h"
#include "src/common/seq_ring_table.h"
#include "src/energy/ledger.h"
#include "src/lsq/lsq_interface.h"

namespace samie::lsq {

struct ConventionalLsqConfig {
  std::uint32_t entries = 128;
};

class ConventionalLsq final {
 public:
  /// `ledger` may be null (no energy accounting, e.g. inside ARB sweeps).
  /// Throws std::invalid_argument when `entries` is 0.
  ConventionalLsq(const ConventionalLsqConfig& cfg,
                  energy::ConvLsqLedger* ledger);

  [[nodiscard]] bool can_dispatch(bool is_load) const;
  void on_dispatch(InstSeq seq, bool is_load);
  /// Every address computation places at once: nothing is ever rejected.
  [[nodiscard]] std::uint32_t placement_headroom() const { return ~0U; }

  Placement on_address_ready(const MemOpDesc& op);
  void drain(std::vector<InstSeq>& newly_placed);
  [[nodiscard]] bool is_placed(InstSeq seq) const;

  [[nodiscard]] LoadPlan plan_load(InstSeq seq) const;
  /// The conventional LSQ caches no L1D location or translation.
  [[nodiscard]] CacheHints cache_hints(InstSeq /*seq*/) const {
    return CacheHints{};
  }
  bool on_cache_access_complete(InstSeq /*seq*/, std::uint32_t /*set*/,
                                std::uint32_t /*way*/) {
    return false;
  }
  void on_load_complete(InstSeq seq);
  void on_store_data_ready(InstSeq seq);

  void on_commit(InstSeq seq);
  void squash_from(InstSeq seq);
  void on_cache_line_replaced(std::uint32_t /*set*/) {}

  [[nodiscard]] OccupancySample occupancy() const;

  /// Placement is immediate (drain() is a no-op), so the conventional
  /// queue never holds deferred work.
  [[nodiscard]] bool has_pending_work() const noexcept { return false; }

  /// Test hook: recomputes the occupancy sample by walking the age ring
  /// and cross-checks the seq ring table against it — every queued entry
  /// must be found by the O(1) lookup at its ring position (mirrors
  /// ArbLsq::recount_occupancy).
  [[nodiscard]] OccupancySample recount_occupancy() const;

 private:
  /// One queued instruction. Booleans live in the packed SlotFlags
  /// status word (lsq_interface.h): the disambiguation walk reads
  /// is_load/addr_known for every older/younger entry, and the word
  /// keeps the record one pointer smaller.
  struct Entry {
    InstSeq seq = kNoInst;
    Addr addr = 0;
    InstSeq fwd_store = kNoInst;
    std::uint8_t size = 0;
    SlotFlags flags;  ///< is_load / addr_known / data_ready / fwd_full
  };

  [[nodiscard]] Entry* find(InstSeq seq);
  [[nodiscard]] const Entry* find(InstSeq seq) const;
  /// True if `seq` names a still-queued (uncommitted) store. Forwarding
  /// references are invalidated lazily: commit just pops the ring, and
  /// readers treat a reference to a departed store as "forward from
  /// memory" — bit-identical to the eager clearing this replaced.
  [[nodiscard]] bool store_live(InstSeq seq) const {
    return !entries_.empty() && seq >= entries_.front().seq;
  }

  ConventionalLsqConfig cfg_;
  energy::ConvLsqLedger* ledger_;
  /// Age-ordered ring (entries_[i].seq increasing): allocation appends,
  /// commit pops the front in O(1) (no vector front-erase shift), squash
  /// pops from the back.
  RingDeque<Entry> entries_;
  /// O(1) seq lookup (the last binary search in the LSQ tree): maps a
  /// queued seq to its *absolute allocation index*; the ring position is
  /// that index minus `front_abs_`, which advances as commits pop the
  /// front. Squash pops rewind `next_abs_` (the indices are never reused
  /// while their owners are queued).
  SeqRingTable<std::uint64_t> where_;
  std::uint64_t front_abs_ = 0;  ///< absolute index of entries_.front()
  std::uint64_t next_abs_ = 0;   ///< absolute index of the next allocation
  /// Age-ordered seqs by kind. Disambiguation only ever compares a load
  /// against *older stores* and a store against *younger loads*, so the
  /// placement walk visits exactly the relevant kind — the store walk
  /// additionally enters from the young end and stops at its own age,
  /// never touching the older half the age-ordered scan used to skip
  /// one `continue` at a time. Maintained alongside entries_: dispatch
  /// appends, commit pops the front (in-order), squash pops the back.
  RingDeque<InstSeq> load_seqs_;
  RingDeque<InstSeq> store_seqs_;
};

static_assert(LoadStoreQueue<ConventionalLsq>);

}  // namespace samie::lsq
