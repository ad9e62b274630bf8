#include "src/lsq/samie_lsq.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/common/bit_scan.h"

namespace samie::lsq {

SamieLsq::SamieLsq(const SamieConfig& cfg, energy::SamieLsqLedger* ledger)
    : cfg_(cfg),
      ledger_(ledger),
      line_shift_(log2_floor(cfg.line_bytes)),
      where_(cfg.seq_window_hint) {
  if (cfg_.banks == 0) {
    throw std::invalid_argument("SamieConfig: banks must be >= 1");
  }
  if (cfg_.addr_buffer_slots == 0) {
    // With no AddrBuffer slot, placement_headroom() is never positive and
    // no memory op ever issues.
    throw std::invalid_argument("SamieConfig: addr_buffer_slots must be >= 1");
  }
  if (!is_pow2(cfg_.line_bytes) || cfg_.line_bytes > 256) {
    // A slot keeps its offset within the line in one byte.
    throw std::invalid_argument(
        "SamieConfig: line_bytes must be a power of two <= 256 (got " +
        std::to_string(cfg_.line_bytes) + ")");
  }
  if (cfg_.l1d_sets == 0) {
    throw std::invalid_argument("SamieConfig: l1d_sets must be >= 1");
  }
  if (cfg_.entries_per_bank == 0 || cfg_.entries_per_bank > 64 ||
      cfg_.slots_per_entry == 0 || cfg_.slots_per_entry > 64) {
    throw std::invalid_argument(
        "SamieConfig: entries_per_bank and slots_per_entry must be in "
        "[1, 64] (occupancy bitmask width)");
  }
  if (is_pow2(cfg_.banks)) bank_mask_plus1_ = cfg_.banks;
  full_entry_mask_ = cfg_.entries_per_bank == 64
                         ? ~0ULL
                         : (1ULL << cfg_.entries_per_bank) - 1;
  full_slot_mask_ =
      cfg_.slots_per_entry == 64 ? ~0ULL : (1ULL << cfg_.slots_per_entry) - 1;

  banks_.resize(cfg_.banks);
  for (auto& bank : banks_) {
    bank.entries.resize(cfg_.entries_per_bank);
    for (auto& e : bank.entries) e.slots.resize(cfg_.slots_per_entry);
  }
  shared_.resize(cfg_.unbounded_shared ? 0 : cfg_.shared_entries);
  for (auto& e : shared_) e.slots.resize(cfg_.slots_per_entry);
  shared_valid_.assign(std::max<std::size_t>(1, (shared_.size() + 63) / 64), 0);

  buffer_.reserve(cfg_.addr_buffer_slots);
}

template <typename Self, typename Fn>
void SamieLsq::for_each_valid_shared_impl(Self& self, Fn&& fn) {
  for (std::size_t wi = 0; wi < self.shared_valid_.size(); ++wi) {
    for (std::uint64_t m = self.shared_valid_[wi]; m != 0; m &= m - 1) {
      const auto i = static_cast<std::uint32_t>(wi * 64 + ctz(m));
      fn(i, self.shared_[i]);
    }
  }
}

template <typename Fn>
void SamieLsq::for_each_same_line(Addr line, Fn&& fn) {
  Bank& bank = banks_[bank_of(line)];
  for (std::uint64_t m = bank.valid_mask; m != 0; m &= m - 1) {
    Entry& e = bank.entries[ctz(m)];
    if (e.line == line) fn(e);
  }
  for_each_valid_shared([&](std::uint32_t, Entry& e) {
    if (e.line == line) fn(e);
  });
}

void SamieLsq::fill_slot(const MemOpDesc& op, const Loc& loc, bool new_entry) {
  Entry& e = entry_at(loc);
  const bool distrib = loc.where == Where::kDistrib;
  if (new_entry) {
    assert(e.slot_mask == 0 && e.used == 0);
    e.valid = true;
    e.line = op.addr >> line_shift_;
    e.present = false;
    e.translation = false;
    e.used = 0;
    e.slot_mask = 0;
    if (distrib) {
      Bank& bank = banks_[loc.bank];
      bank.valid_mask |= 1ULL << loc.entry;
      ++d_entries_used_;
      if (bank.valid_mask == full_entry_mask_) ++banks_full_;
    } else {
      shared_valid_[loc.entry / 64] |= 1ULL << (loc.entry % 64);
      ++s_entries_used_;
    }
    if (ledger_ != nullptr) {
      distrib ? ledger_->on_distrib_addr_write() : ledger_->on_shared_addr_write();
    }
  }

  ++occ_epoch_;
  Slot& s = e.slots[loc.slot];
  s.seq = op.seq;
  s.offset = static_cast<std::uint8_t>(op.addr & (cfg_.line_bytes - 1));
  s.size = op.size;
  s.fwd_store = kNoInst;
  s.flags = SlotFlags::make(/*valid=*/true, op.is_load, op.data_ready);
  e.slot_mask |= 1ULL << loc.slot;
  ++e.used;
  if (e.used == cfg_.slots_per_entry) {
    distrib ? ++d_entries_full_ : ++s_entries_full_;
  }
  if (distrib) {
    ++d_slots_used_;
    ++banks_[loc.bank].slots_used;
  } else {
    ++s_slots_used_;
  }
  where_.insert(op.seq, loc);

  if (ledger_ != nullptr) {
    distrib ? ledger_->on_distrib_age_write() : ledger_->on_shared_age_write();
    if (!op.is_load && op.data_ready) {
      distrib ? ledger_->on_distrib_datum_rw() : ledger_->on_shared_datum_rw();
    }
  }
}

void SamieLsq::disambiguate(const MemOpDesc& op, Loc self_loc) {
  const Addr line = op.addr >> line_shift_;
  const std::uint8_t offset =
      static_cast<std::uint8_t>(op.addr & (cfg_.line_bytes - 1));
  Slot& self = entry_at(self_loc).slots[self_loc.slot];

  for_each_same_line(line, [&](Entry& e) {
    for (std::uint64_t m = e.slot_mask; m != 0; m &= m - 1) {
      Slot& s = e.slots[ctz(m)];
      if (s.seq == op.seq) continue;
      if (op.is_load) {
        if (s.flags.is_load() || s.seq >= op.seq) continue;
        if (ranges_overlap(offset, op.size, s.offset, s.size) &&
            (self.fwd_store == kNoInst || s.seq > self.fwd_store)) {
          self.fwd_store = s.seq;
          self.flags.set_fwd_full(range_covers(static_cast<Addr>(offset),
                                               op.size, s.offset, s.size));
        }
      } else {
        if (!s.flags.is_load() || s.seq <= op.seq) continue;
        if (ranges_overlap(s.offset, s.size, offset, op.size) &&
            (s.fwd_store == kNoInst || s.fwd_store < op.seq)) {
          s.fwd_store = op.seq;
          s.flags.set_fwd_full(range_covers(static_cast<Addr>(s.offset), s.size,
                                            offset, op.size));
        }
      }
    }
  });
}

bool SamieLsq::try_place(const MemOpDesc& op, bool /*from_buffer*/) {
  const Addr line = op.addr >> line_shift_;
  const std::uint32_t bank_idx = bank_of(line);
  Bank& bank = banks_[bank_idx];

  // The address is broadcast to its bank and to the SharedLSQ; both are
  // searched in parallel (paper §3.2). Charge the comparisons now — they
  // happen regardless of whether a slot is found. Age identifiers of every
  // in-use entry reached by the search are compared as well (§4.2). One
  // fused event record carries the whole search: the bank's valid-entry
  // count and per-bank slots_used supply the distrib counts, the O(1)
  // occupancy counters the shared ones — no entry iteration.
  if (ledger_ != nullptr) {
    ledger_->on_placement_search(
        static_cast<std::uint64_t>(std::popcount(bank.valid_mask)),
        bank.slots_used, s_entries_used_, s_slots_used_);
  }

  // Placement preference (paper §3.2): same-line entry with a free slot in
  // the bank; else a free bank entry; else same-line with a free slot in
  // the SharedLSQ; else a free shared entry. All scans are bitmask walks.
  Loc loc;
  bool new_entry = false;
  bool found = false;

  for (std::uint64_t m = bank.valid_mask; m != 0 && !found; m &= m - 1) {
    const std::uint32_t i = ctz(m);
    Entry& e = bank.entries[i];
    if (e.line == line && e.slot_mask != full_slot_mask_) {
      loc = Loc{Where::kDistrib, bank_idx, i, ctz(~e.slot_mask)};
      found = true;
    }
  }
  if (!found) {
    const std::uint64_t free_entries = ~bank.valid_mask & full_entry_mask_;
    if (free_entries != 0) {
      loc = Loc{Where::kDistrib, bank_idx, ctz(free_entries), 0};
      new_entry = true;
      found = true;
    }
  }
  if (!found) {
    const std::size_t n = shared_.size();
    for (std::size_t wi = 0; wi * 64 < n && !found; ++wi) {
      for (std::uint64_t m = shared_valid_[wi]; m != 0 && !found; m &= m - 1) {
        const auto i = static_cast<std::uint32_t>(wi * 64 + ctz(m));
        Entry& e = shared_[i];
        if (e.line == line && e.slot_mask != full_slot_mask_) {
          loc = Loc{Where::kShared, 0, i, ctz(~e.slot_mask)};
          found = true;
        }
      }
    }
  }
  if (!found) {
    const std::size_t n = shared_.size();
    for (std::size_t wi = 0; wi * 64 < n && !found; ++wi) {
      const std::uint64_t covered =
          n - wi * 64 >= 64 ? ~0ULL : (1ULL << (n - wi * 64)) - 1;
      const std::uint64_t free_entries = ~shared_valid_[wi] & covered;
      if (free_entries != 0) {
        loc = Loc{Where::kShared, 0,
                  static_cast<std::uint32_t>(wi * 64 + ctz(free_entries)), 0};
        new_entry = true;
        found = true;
      }
    }
  }
  if (!found && cfg_.unbounded_shared) {
    shared_.emplace_back();
    shared_.back().slots.resize(cfg_.slots_per_entry);
    if (shared_.size() > shared_valid_.size() * 64) shared_valid_.push_back(0);
    loc = Loc{Where::kShared, 0, static_cast<std::uint32_t>(shared_.size() - 1), 0};
    new_entry = true;
    found = true;
  }
  if (!found) return false;

  fill_slot(op, loc, new_entry);
  disambiguate(op, loc);
  return true;
}

Placement SamieLsq::on_address_ready(const MemOpDesc& op) {
  if (try_place(op, /*from_buffer=*/false)) {
    return Placement{Placement::Status::kPlaced};
  }
  if (buffer_.size() >= cfg_.addr_buffer_slots) {
    return Placement{Placement::Status::kRejected};
  }
  ++buffered_;
  ++occ_epoch_;
  buffer_.push_back(op);
  if (ledger_ != nullptr) ledger_->on_addrbuf_write();
  return Placement{Placement::Status::kBuffered};
}

void SamieLsq::drain(std::vector<InstSeq>& newly_placed) {
  // Buffered instructions retry oldest-first with priority over newly
  // computed addresses (paper §3.2). The AddrBuffer is a FIFO (§3.3), so
  // the head blocks the queue until it places; each retry re-reads the
  // FIFO head and re-runs the parallel search — this is what makes ammp
  // the one program whose SAMIE LSQ energy approaches the conventional
  // LSQ's (Figure 7).
  for (std::uint32_t n = 0; n < cfg_.drain_width && !buffer_.empty(); ++n) {
    const MemOpDesc& op = buffer_.front();
    if (ledger_ != nullptr) ledger_->on_addrbuf_read();
    if (!try_place(op, /*from_buffer=*/true)) break;
    newly_placed.push_back(op.seq);
    ++occ_epoch_;
    buffer_.pop_front();
  }
}

LoadPlan SamieLsq::plan_load(InstSeq seq) const {
  const Loc* loc = where_find(seq);
  assert(loc != nullptr);
  const Slot& s = entry_at(*loc).slots[loc->slot];
  assert(s.flags.valid() && s.flags.is_load());
  LoadPlan p;
  if (s.fwd_store == kNoInst) return p;
  const Loc* sloc = where_find(s.fwd_store);
  assert(sloc != nullptr);
  const Slot& st = entry_at(*sloc).slots[sloc->slot];
  p.store = s.fwd_store;
  if (!s.flags.fwd_full()) {
    p.kind = LoadPlan::Kind::kWaitCommit;
  } else if (st.flags.data_ready()) {
    p.kind = LoadPlan::Kind::kForwardReady;
  } else {
    p.kind = LoadPlan::Kind::kForwardWait;
  }
  return p;
}

CacheHints SamieLsq::cache_hints(InstSeq seq) const {
  const Loc* loc = where_find(seq);
  assert(loc != nullptr);
  const Entry& e = entry_at(*loc);
  CacheHints h;
  h.way_known = e.present;
  h.set = e.set;
  h.way = e.way;
  h.translation_known = e.translation;
  if (ledger_ != nullptr && (e.present || e.translation)) {
    // Reading the cached line id / translation out of the entry.
    if (loc->where == Where::kDistrib) {
      if (e.present) ledger_->on_distrib_line_id_rw();
      if (e.translation) ledger_->on_distrib_translation_rw();
    } else {
      if (e.present) ledger_->on_shared_line_id_rw();
      if (e.translation) ledger_->on_shared_translation_rw();
    }
  }
  return h;
}

bool SamieLsq::on_cache_access_complete(InstSeq seq, std::uint32_t set,
                                        std::uint32_t way) {
  const Loc* loc = where_find(seq);
  assert(loc != nullptr);
  Entry& e = entry_at(*loc);
  const bool distrib = loc->where == Where::kDistrib;
  if (!e.present) {
    e.present = true;
    e.set = set;
    e.way = way;
    if (ledger_ != nullptr) {
      distrib ? ledger_->on_distrib_line_id_rw() : ledger_->on_shared_line_id_rw();
    }
  }
  if (!e.translation) {
    e.translation = true;
    if (ledger_ != nullptr) {
      distrib ? ledger_->on_distrib_translation_rw()
              : ledger_->on_shared_translation_rw();
    }
  }
  return true;
}

void SamieLsq::on_load_complete(InstSeq seq) {
  const Loc* loc = where_find(seq);
  assert(loc != nullptr);
  const bool distrib = loc->where == Where::kDistrib;
  const Slot& s = entry_at(*loc).slots[loc->slot];
  if (ledger_ != nullptr) {
    // The loaded datum is written into the slot; a forwarded load also
    // read the source store's datum.
    distrib ? ledger_->on_distrib_datum_rw() : ledger_->on_shared_datum_rw();
    if (s.fwd_store != kNoInst && s.flags.fwd_full()) {
      if (const Loc* sloc = where_find(s.fwd_store); sloc != nullptr) {
        sloc->where == Where::kDistrib ? ledger_->on_distrib_datum_rw()
                                       : ledger_->on_shared_datum_rw();
      }
    }
  }
}

void SamieLsq::on_store_data_ready(InstSeq seq) {
  const Loc* loc = where_find(seq);
  assert(loc != nullptr);
  Slot& s = entry_at(*loc).slots[loc->slot];
  assert(s.flags.valid() && !s.flags.is_load());
  s.flags.set_data_ready(true);
  if (ledger_ != nullptr) {
    loc->where == Where::kDistrib ? ledger_->on_distrib_datum_rw()
                                  : ledger_->on_shared_datum_rw();
  }
}

void SamieLsq::clear_forward_refs(Entry& e, InstSeq store) {
  for (std::uint64_t m = e.slot_mask; m != 0; m &= m - 1) {
    Slot& s = e.slots[ctz(m)];
    if (s.fwd_store == store) {
      s.fwd_store = kNoInst;
      s.flags.set_fwd_full(false);
    }
  }
}

void SamieLsq::free_slot(const Loc& loc, InstSeq seq) {
  ++occ_epoch_;
  Entry& e = entry_at(loc);
  const bool distrib = loc.where == Where::kDistrib;
  assert(e.slots[loc.slot].flags.valid() && e.slots[loc.slot].seq == seq);
  if (e.used == cfg_.slots_per_entry) {
    distrib ? --d_entries_full_ : --s_entries_full_;
  }
  e.slots[loc.slot].flags.set_valid(false);
  e.slots[loc.slot].seq = kNoInst;
  e.slot_mask &= ~(1ULL << loc.slot);
  --e.used;
  if (distrib) {
    --d_slots_used_;
    --banks_[loc.bank].slots_used;
  } else {
    --s_slots_used_;
  }
  if (e.used == 0) {
    e.valid = false;
    e.present = false;
    e.translation = false;
    if (distrib) {
      Bank& bank = banks_[loc.bank];
      if (bank.valid_mask == full_entry_mask_) --banks_full_;
      bank.valid_mask &= ~(1ULL << loc.entry);
      --d_entries_used_;
    } else {
      shared_valid_[loc.entry / 64] &= ~(1ULL << (loc.entry % 64));
      --s_entries_used_;
    }
  }
  where_.erase(seq);
}

void SamieLsq::on_commit(InstSeq seq) {
  const Loc* at = where_find(seq);
  assert(at != nullptr);
  const Loc loc = *at;
  Entry& e = entry_at(loc);
  const Slot& s = e.slots[loc.slot];
  if (!s.flags.is_load()) {
    // The store's datum leaves for the cache; loads that planned to
    // forward from it fall back to the (now up-to-date) cache.
    if (ledger_ != nullptr) {
      loc.where == Where::kDistrib ? ledger_->on_distrib_datum_rw()
                                   : ledger_->on_shared_datum_rw();
    }
    const Addr line = e.line;
    for_each_same_line(line, [&](Entry& other) { clear_forward_refs(other, seq); });
  }
  free_slot(loc, seq);
}

void SamieLsq::squash_from(InstSeq seq) {
  // One walk collects the squashed slots; forwarding refs are same-line
  // by construction (disambiguate only links within for_each_same_line),
  // so stale refs to squashed *stores* can only survive in entries
  // holding those stores' lines — clear exactly those lines instead of
  // re-walking every bank and the shared structure.
  squash_scratch_.clear();
  squash_lines_scratch_.clear();
  auto collect = [&](Where where, std::uint32_t bank, std::uint32_t ei,
                     Entry& e) {
    for (std::uint64_t m = e.slot_mask; m != 0; m &= m - 1) {
      const std::uint32_t si = ctz(m);
      if (e.slots[si].seq >= seq) {
        squash_scratch_.emplace_back(Loc{where, bank, ei, si}, e.slots[si].seq);
        if (!e.slots[si].flags.is_load()) {
          squash_lines_scratch_.push_back(e.line);
        }
      }
    }
  };
  for (std::uint32_t b = 0; b < cfg_.banks; ++b) {
    for (std::uint64_t m = banks_[b].valid_mask; m != 0; m &= m - 1) {
      const std::uint32_t ei = ctz(m);
      collect(Where::kDistrib, b, ei, banks_[b].entries[ei]);
    }
  }
  for_each_valid_shared(
      [&](std::uint32_t i, Entry& e) { collect(Where::kShared, 0, i, e); });
  for (const auto& [loc, s] : squash_scratch_) free_slot(loc, s);

  auto clear_refs = [&](Entry& e) {
    for (std::uint64_t m = e.slot_mask; m != 0; m &= m - 1) {
      Slot& s = e.slots[ctz(m)];
      if (s.fwd_store != kNoInst && s.fwd_store >= seq) {
        s.fwd_store = kNoInst;
        s.flags.set_fwd_full(false);
      }
    }
  };
  std::sort(squash_lines_scratch_.begin(), squash_lines_scratch_.end());
  squash_lines_scratch_.erase(
      std::unique(squash_lines_scratch_.begin(), squash_lines_scratch_.end()),
      squash_lines_scratch_.end());
  for (const Addr line : squash_lines_scratch_) {
    for_each_same_line(line, clear_refs);
  }

  // Compact the AddrBuffer ring in place, preserving FIFO order.
  ++occ_epoch_;
  buffer_.erase_if([seq](const MemOpDesc& op) { return op.seq >= seq; });
}

void SamieLsq::on_cache_line_replaced(std::uint32_t set) {
  // Reset the presentBit of every entry that could hold a line mapping to
  // `set` (paper §3.4: "resetting the presentBit flag of all entries that
  // can be potentially affected"). A line L sits in bank L % banks and set
  // L % sets, so a line of `set` can sit in exactly the banks b with
  // b == set (mod gcd(banks, sets)). For power-of-two geometries that is
  // the single bank set % banks when banks < sets, and the banks
  // set, set + sets, ... otherwise.
  auto reset_entry = [&](Entry& e) {
    if (e.present) {
      e.present = false;
      ++present_resets_;
    }
  };
  auto reset_bank = [&](Bank& bank) {
    for (std::uint64_t m = bank.valid_mask; m != 0; m &= m - 1) {
      reset_entry(bank.entries[ctz(m)]);
    }
  };
  const std::uint32_t g = std::gcd(cfg_.banks, cfg_.l1d_sets);
  for (std::uint32_t b = set % g; b < cfg_.banks; b += g) {
    reset_bank(banks_[b]);
  }
  for_each_valid_shared([&](std::uint32_t, Entry& e) { reset_entry(e); });
}

OccupancySample SamieLsq::occupancy() const {
  OccupancySample s;
  s.distrib_entries_used = d_entries_used_;
  s.distrib_slots_used = d_slots_used_;
  s.distrib_banks_full = banks_full_;
  s.distrib_entries_full = d_entries_full_;
  s.shared_entries_used = s_entries_used_;
  s.shared_slots_used = s_slots_used_;
  s.shared_entries_full = s_entries_full_;
  s.buffer_used = static_cast<std::uint32_t>(buffer_.size());
  return s;
}

OccupancySample SamieLsq::recount_occupancy() const {
  // From-scratch recount off the per-slot valid flags — deliberately NOT
  // off the bitmasks, so it cross-checks mask maintenance too.
  OccupancySample s;
  auto count_entry = [&](const Entry& e, bool distrib) {
    std::uint32_t used = 0;
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < e.slots.size(); ++i) {
      if (e.slots[i].flags.valid()) {
        ++used;
        mask |= 1ULL << i;
      }
    }
    assert(mask == e.slot_mask);
    assert(used == e.used);
    if (used == 0) return;
    if (distrib) {
      ++s.distrib_entries_used;
      s.distrib_slots_used += used;
      if (used == cfg_.slots_per_entry) ++s.distrib_entries_full;
    } else {
      ++s.shared_entries_used;
      s.shared_slots_used += used;
      if (used == cfg_.slots_per_entry) ++s.shared_entries_full;
    }
  };
  for (const Bank& bank : banks_) {
    std::uint32_t in_use = 0;
    for (const Entry& e : bank.entries) {
      if (e.valid) ++in_use;
      count_entry(e, /*distrib=*/true);
    }
    if (in_use == cfg_.entries_per_bank) ++s.distrib_banks_full;
  }
  for (const Entry& e : shared_) count_entry(e, /*distrib=*/false);
  s.buffer_used = static_cast<std::uint32_t>(buffer_.size());
  return s;
}

}  // namespace samie::lsq
