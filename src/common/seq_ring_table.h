// SeqRingTable<Loc>: a flat ring-indexed map from live InstSeq to a
// small location payload.
//
// LSQs need seq -> location lookups on every plan/complete/commit call;
// an unordered_map pays hashing and pointer chasing on each one. Because
// live sequence numbers span at most the ROB window, indexing a
// power-of-two table by `seq & mask` is collision-free in practice:
// two live seqs share a cell only when the table is smaller than the
// spread of live seqs. Every table starts at kInitialCells (1024), which
// covers the paper's 256-entry ROB four times over; a wider spread (a
// ROB above 1024) is handled by doubling the table until every live
// entry relocates cleanly.
//
// ConventionalLsq, ArbLsq and SamieLsq share the exact layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace samie {

template <typename Loc>
class SeqRingTable {
 public:
  static constexpr std::uint64_t kInitialCells = 1024;

  /// Pointer to the payload for `seq`, or nullptr when absent.
  [[nodiscard]] const Loc* find(InstSeq seq) const noexcept {
    const Cell& c = cells_[seq & mask_];
    return c.seq == seq ? &c.loc : nullptr;
  }
  [[nodiscard]] Loc* find(InstSeq seq) noexcept {
    Cell& c = cells_[seq & mask_];
    return c.seq == seq ? &c.loc : nullptr;
  }

  void insert(InstSeq seq, const Loc& loc) {
    for (;;) {
      Cell& c = cells_[seq & mask_];
      if (c.seq == kNoInst || c.seq == seq) {
        c.seq = seq;
        c.loc = loc;
        return;
      }
      grow();  // live-residue collision: cold path
    }
  }

  void erase(InstSeq seq) noexcept {
    Cell& c = cells_[seq & mask_];
    if (c.seq == seq) c.seq = kNoInst;
  }

 private:
  struct Cell {
    InstSeq seq = kNoInst;
    Loc loc{};
  };

  /// Doubles until every live entry lands in a distinct cell.
  void grow() {
    std::size_t size = cells_.size();
    for (;;) {
      size *= 2;
      std::vector<Cell> bigger(size);
      const std::uint64_t mask = size - 1;
      bool ok = true;
      for (const Cell& c : cells_) {
        if (c.seq == kNoInst) continue;
        Cell& cell = bigger[c.seq & mask];
        if (cell.seq != kNoInst) {
          ok = false;
          break;
        }
        cell = c;
      }
      if (ok) {
        cells_ = std::move(bigger);
        mask_ = mask;
        return;
      }
    }
  }

  std::vector<Cell> cells_ = std::vector<Cell>(kInitialCells);
  std::uint64_t mask_ = kInitialCells - 1;
};

}  // namespace samie
