#include "src/lsq/arb_lsq.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "src/common/bit_scan.h"

namespace samie::lsq {

ArbLsq::ArbLsq(const ArbConfig& cfg)
    : cfg_(cfg),
      line_shift_(log2_floor(cfg.line_bytes)),
      slot_words_((cfg.max_inflight + 63) / 64),
      row_words_((cfg.rows_per_bank + 63) / 64) {
  if (cfg_.banks == 0 || cfg_.rows_per_bank == 0 || cfg_.max_inflight == 0) {
    throw std::invalid_argument(
        "ArbConfig: banks, rows_per_bank and max_inflight must be >= 1");
  }
  if (!is_pow2(cfg_.line_bytes) || cfg_.line_bytes > 256) {
    // A slot keeps its offset within the line in one byte.
    throw std::invalid_argument(
        "ArbConfig: line_bytes must be a power of two <= 256 (got " +
        std::to_string(cfg_.line_bytes) + ")");
  }
  rows_.resize(static_cast<std::size_t>(cfg_.banks) * cfg_.rows_per_bank);
  for (auto& r : rows_) {
    r.slots.resize(cfg_.max_inflight);
    r.slot_mask.assign(slot_words_, 0);
  }
  row_masks_.assign(static_cast<std::size_t>(cfg_.banks) * row_words_, 0);
  waiting_.reserve(cfg_.max_inflight);
  dispatched_.reserve(cfg_.max_inflight);
}

std::uint32_t ArbLsq::bank_of(Addr line) const {
  return static_cast<std::uint32_t>(line % cfg_.banks);
}

std::uint32_t ArbLsq::find_row(std::uint32_t bank, Addr line) const {
  const std::uint64_t* words = &row_masks_[bank * row_words_];
  for (std::uint32_t wi = 0; wi < row_words_; ++wi) {
    for (std::uint64_t m = words[wi]; m != 0; m &= m - 1) {
      const std::uint32_t r = wi * 64 + ctz(m);
      if (row_at(bank, r).line == line) return r;
    }
  }
  return cfg_.rows_per_bank;
}

bool ArbLsq::can_dispatch(bool /*is_load*/) const {
  return dispatched_.size() < cfg_.max_inflight;
}

void ArbLsq::on_dispatch(InstSeq seq, bool /*is_load*/) {
  assert(dispatched_.empty() || dispatched_.back() < seq);
  dispatched_.push_back(seq);
}

void ArbLsq::disambiguate(const MemOpDesc& op, Row& row,
                          std::uint32_t slot_idx) {
  Slot& self = row.slots[slot_idx];
  if (op.is_load) {
    for (std::uint32_t wi = 0; wi < slot_words_; ++wi) {
      for (std::uint64_t m = row.slot_mask[wi]; m != 0; m &= m - 1) {
        const Slot& s = row.slots[wi * 64 + ctz(m)];
        if (s.flags.is_load() || s.seq >= op.seq) continue;
        if (ranges_overlap(op.addr & 0xFF, op.size, s.offset, s.size)) {
          if (self.fwd_store == kNoInst || s.seq > self.fwd_store) {
            self.fwd_store = s.seq;
            self.flags.set_fwd_full(range_covers(static_cast<Addr>(self.offset),
                                                 op.size, s.offset, s.size));
          }
        }
      }
    }
  } else {
    for (std::uint32_t wi = 0; wi < slot_words_; ++wi) {
      for (std::uint64_t m = row.slot_mask[wi]; m != 0; m &= m - 1) {
        Slot& s = row.slots[wi * 64 + ctz(m)];
        if (!s.flags.is_load() || s.seq <= op.seq) continue;
        if (ranges_overlap(s.offset, s.size, self.offset, self.size) &&
            (s.fwd_store == kNoInst || s.fwd_store < op.seq)) {
          s.fwd_store = op.seq;
          s.flags.set_fwd_full(range_covers(static_cast<Addr>(s.offset), s.size,
                                            self.offset, self.size));
        }
      }
    }
  }
}

bool ArbLsq::try_place(const MemOpDesc& op) {
  const Addr line = op.addr >> line_shift_;
  const std::uint32_t bank = bank_of(line);
  std::uint32_t row_idx = find_row(bank, line);
  if (row_idx >= cfg_.rows_per_bank) {
    // Allocate a free row in the bank.
    row_idx =
        first_free(&row_masks_[bank * row_words_], cfg_.rows_per_bank);
    if (row_idx >= cfg_.rows_per_bank) return false;
    Row& row = row_at(bank, row_idx);
    row.valid = true;
    row.line = line;
    assert(row.used == 0);
    row_masks_[bank * row_words_ + row_idx / 64] |= 1ULL << (row_idx % 64);
    ++rows_used_;
  }
  Row& row = row_at(bank, row_idx);

  const std::uint32_t slot_idx =
      first_free(row.slot_mask.data(), cfg_.max_inflight);
  // The global in-flight cap bounds slots per row, so a valid row always
  // has a free slot.
  assert(slot_idx < cfg_.max_inflight);
  Slot& s = row.slots[slot_idx];
  s.seq = op.seq;
  s.offset = static_cast<std::uint8_t>(op.addr & (cfg_.line_bytes - 1));
  s.size = op.size;
  s.fwd_store = kNoInst;
  s.flags = SlotFlags::make(/*valid=*/true, op.is_load, op.data_ready);
  row.slot_mask[slot_idx / 64] |= 1ULL << (slot_idx % 64);
  ++row.used;
  ++slots_placed_;
  where_.insert(op.seq, Loc{bank, row_idx, slot_idx});

  // Recompute the self offset into a line-relative op for disambiguation.
  MemOpDesc rel = op;
  rel.addr = s.offset;
  disambiguate(rel, row, slot_idx);
  return true;
}

Placement ArbLsq::on_address_ready(const MemOpDesc& op) {
  if (try_place(op)) return Placement{Placement::Status::kPlaced};
  ++conflicts_;
  waiting_.push_back(op);
  return Placement{Placement::Status::kBuffered};
}

void ArbLsq::drain(std::vector<InstSeq>& newly_placed) {
  while (!waiting_.empty()) {
    const MemOpDesc op = waiting_.front();
    if (!try_place(op)) break;
    newly_placed.push_back(op.seq);
    waiting_.pop_front();
  }
  // A head left in the FIFO just failed against current state; until a
  // slot frees (commit/squash), further retries are provably no-ops and
  // the engine may fast-forward past them.
  drain_blocked_ = !waiting_.empty();
}

bool ArbLsq::is_placed(InstSeq seq) const {
  return where_.find(seq) != nullptr;
}

const ArbLsq::Slot* ArbLsq::slot_of(InstSeq seq) const {
  return const_cast<ArbLsq*>(this)->slot_of(seq);
}

ArbLsq::Slot* ArbLsq::slot_of(InstSeq seq) {
  const Loc* loc = where_.find(seq);
  if (loc == nullptr) return nullptr;
  return &row_at(loc->bank, loc->row).slots[loc->slot];
}

LoadPlan ArbLsq::plan_load(InstSeq seq) const {
  const Slot* s = slot_of(seq);
  assert(s != nullptr && s->flags.is_load());
  LoadPlan p;
  if (s->fwd_store == kNoInst) return p;
  const Slot* st = slot_of(s->fwd_store);
  assert(st != nullptr);
  p.store = s->fwd_store;
  if (!s->flags.fwd_full()) {
    p.kind = LoadPlan::Kind::kWaitCommit;
  } else if (st->flags.data_ready()) {
    p.kind = LoadPlan::Kind::kForwardReady;
  } else {
    p.kind = LoadPlan::Kind::kForwardWait;
  }
  return p;
}

void ArbLsq::on_store_data_ready(InstSeq seq) {
  Slot* s = slot_of(seq);
  assert(s != nullptr && !s->flags.is_load());
  s->flags.set_data_ready(true);
}

void ArbLsq::free_slot(const Loc& loc) {
  Row& row = row_at(loc.bank, loc.row);
  Slot& s = row.slots[loc.slot];
  assert(s.flags.valid());
  s.flags.set_valid(false);
  s.flags.set_fwd_full(false);
  s.seq = kNoInst;
  s.fwd_store = kNoInst;
  row.slot_mask[loc.slot / 64] &= ~(1ULL << (loc.slot % 64));
  assert(row.used > 0);
  --row.used;
  --slots_placed_;
  if (row.used == 0) {
    row.valid = false;
    row_masks_[loc.bank * row_words_ + loc.row / 64] &=
        ~(1ULL << (loc.row % 64));
    --rows_used_;
  }
}

void ArbLsq::on_commit(InstSeq seq) {
  const Loc* at = where_.find(seq);
  assert(at != nullptr);
  const Loc loc = *at;
  Row& row = row_at(loc.bank, loc.row);
  // Clear forwarding references to this store, then release the slot.
  for (std::uint32_t wi = 0; wi < slot_words_; ++wi) {
    for (std::uint64_t m = row.slot_mask[wi]; m != 0; m &= m - 1) {
      Slot& s = row.slots[wi * 64 + ctz(m)];
      if (s.fwd_store == seq) {
        s.fwd_store = kNoInst;
        s.flags.set_fwd_full(false);
      }
    }
  }
  free_slot(loc);
  where_.erase(seq);
  assert(!dispatched_.empty() && dispatched_.front() == seq);
  dispatched_.pop_front();
  drain_blocked_ = false;  // a freed slot can unblock the retry FIFO
}

void ArbLsq::squash_from(InstSeq seq) {
  // The age FIFO names every dispatched instruction >= seq; placed ones
  // release their slot, the rest were only occupying the in-flight cap.
  // Forwarding references are strictly intra-row (disambiguate links a
  // load only to stores on its own line, which is its own row), so the
  // rows holding squashed *stores* are the only places a stale ref can
  // survive — collect them while popping and clear just those instead
  // of sweeping every row of every bank. O(squashed) end to end.
  squash_rows_scratch_.clear();
  while (!dispatched_.empty() && dispatched_.back() >= seq) {
    const InstSeq s = dispatched_.back();
    if (const Loc* loc = where_.find(s)) {
      if (!row_at(loc->bank, loc->row).slots[loc->slot].flags.is_load()) {
        squash_rows_scratch_.push_back(loc->bank * cfg_.rows_per_bank +
                                       loc->row);
      }
      free_slot(*loc);
      where_.erase(s);
    }
    dispatched_.pop_back();
  }
  std::sort(squash_rows_scratch_.begin(), squash_rows_scratch_.end());
  squash_rows_scratch_.erase(
      std::unique(squash_rows_scratch_.begin(), squash_rows_scratch_.end()),
      squash_rows_scratch_.end());
  for (const std::uint32_t ri : squash_rows_scratch_) {
    Row& row = rows_[ri];  // may have been freed by the pops: masks are 0
    for (std::uint32_t wi = 0; wi < slot_words_; ++wi) {
      for (std::uint64_t m = row.slot_mask[wi]; m != 0; m &= m - 1) {
        Slot& s = row.slots[wi * 64 + ctz(m)];
        if (s.fwd_store != kNoInst && s.fwd_store >= seq) {
          s.fwd_store = kNoInst;
          s.flags.set_fwd_full(false);
        }
      }
    }
  }
  // The wait queue is ordered by agen completion, not by age: filter it.
  waiting_.erase_if([seq](const MemOpDesc& op) { return op.seq >= seq; });
  drain_blocked_ = false;  // freed slots (and a new head) invalidate the proof
}

OccupancySample ArbLsq::occupancy() const {
  OccupancySample s;
  s.entries_used = static_cast<std::uint32_t>(dispatched_.size());
  s.buffer_used = static_cast<std::uint32_t>(waiting_.size());
  s.distrib_entries_used = rows_used_;
  s.distrib_slots_used = slots_placed_;
  return s;
}

OccupancySample ArbLsq::recount_occupancy() const {
  // From-scratch recount off the per-slot valid flags — deliberately NOT
  // off the bitmasks, so it cross-checks mask maintenance too.
  OccupancySample sample;
  sample.entries_used = static_cast<std::uint32_t>(dispatched_.size());
  sample.buffer_used = static_cast<std::uint32_t>(waiting_.size());
  for (std::uint32_t b = 0; b < cfg_.banks; ++b) {
    for (std::uint32_t r = 0; r < cfg_.rows_per_bank; ++r) {
      const Row& row = row_at(b, r);
      std::uint32_t used = 0;
      for (std::uint32_t i = 0; i < cfg_.max_inflight; ++i) {
        const bool valid = row.slots[i].flags.valid();
        assert(valid == ((row.slot_mask[i / 64] >> (i % 64) & 1ULL) != 0));
        if (!valid) continue;
        ++used;
        const Loc* loc = where_.find(row.slots[i].seq);
        assert(loc != nullptr && loc->bank == b && loc->row == r &&
               loc->slot == i);
        (void)loc;
      }
      assert(used == row.used);
      assert(row.valid == (used > 0));
      assert(row.valid ==
             ((row_masks_[b * row_words_ + r / 64] >> (r % 64) & 1ULL) != 0));
      if (used > 0) {
        ++sample.distrib_entries_used;
        sample.distrib_slots_used += used;
      }
    }
  }
  return sample;
}

}  // namespace samie::lsq
