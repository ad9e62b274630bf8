#include "src/lsq/conventional_lsq.h"

#include <cassert>
#include <stdexcept>

namespace samie::lsq {

ConventionalLsq::ConventionalLsq(const ConventionalLsqConfig& cfg,
                                 energy::ConvLsqLedger* ledger)
    : cfg_(cfg), ledger_(ledger) {
  if (cfg_.entries == 0) {
    // With no entry, can_dispatch() is never true and no memory op ever
    // dispatches.
    throw std::invalid_argument("ConventionalLsqConfig: entries must be >= 1");
  }
  entries_.reserve(cfg_.entries);
  load_seqs_.reserve(cfg_.entries);
  store_seqs_.reserve(cfg_.entries);
}

ConventionalLsq::Entry* ConventionalLsq::find(InstSeq seq) {
  // O(1): the seq ring table names the entry's absolute allocation index;
  // subtracting the committed-front index yields its ring position.
  const std::uint64_t* abs = where_.find(seq);
  if (abs == nullptr) return nullptr;
  Entry& e = entries_[static_cast<std::size_t>(*abs - front_abs_)];
  assert(e.seq == seq);
  return &e;
}

const ConventionalLsq::Entry* ConventionalLsq::find(InstSeq seq) const {
  return const_cast<ConventionalLsq*>(this)->find(seq);
}

bool ConventionalLsq::can_dispatch(bool /*is_load*/) const {
  return entries_.size() < cfg_.entries;
}

void ConventionalLsq::on_dispatch(InstSeq seq, bool is_load) {
  assert(entries_.size() < cfg_.entries);
  assert(entries_.empty() || entries_.back().seq < seq);
  Entry e;
  e.seq = seq;
  e.flags.set_is_load(is_load);
  where_.insert(seq, next_abs_++);
  ++occ_epoch_;
  (is_load ? load_seqs_ : store_seqs_).push_back(seq);
  entries_.push_back(e);
}

Placement ConventionalLsq::on_address_ready(const MemOpDesc& op) {
  Entry* self = find(op.seq);
  assert(self != nullptr && !self->flags.addr_known());
  self->addr = op.addr;
  self->size = op.size;
  self->flags.set_addr_known(true);
  self->flags.set_data_ready(op.data_ready);
  if (ledger_ != nullptr) ledger_->on_addr_write();

  std::uint64_t compared = 0;
  if (op.is_load) {
    // Compare against older stores with known addresses (the store ring
    // holds exactly the stores, in age order); remember the youngest
    // overlapping one. Bit-identical to the full age-ordered walk: the
    // entries skipped here are the ones `continue` dismissed before.
    for (std::size_t i = 0; i < store_seqs_.size(); ++i) {
      const InstSeq st = store_seqs_[i];
      if (st >= op.seq) break;
      const Entry& e = *find(st);
      if (!e.flags.addr_known()) continue;
      ++compared;
      if (ranges_overlap(op.addr, op.size, e.addr, e.size)) {
        self->fwd_store = e.seq;
        self->flags.set_fwd_full(
            range_covers(op.addr, op.size, e.addr, e.size));
      }
    }
  } else {
    // Compare against younger loads with known addresses and update
    // their forwarding information. Entering the load ring from the
    // young end stops the walk at this store's own age; each load's
    // update reads only its own state, so the reversed visit order
    // changes no outcome (and `compared` is a count).
    if (op.data_ready && ledger_ != nullptr) ledger_->on_datum_write();
    for (std::size_t i = load_seqs_.size(); i-- > 0;) {
      const InstSeq l = load_seqs_[i];
      if (l <= op.seq) break;
      Entry& e = *find(l);
      if (!e.flags.addr_known()) continue;
      ++compared;
      if (ranges_overlap(e.addr, e.size, op.addr, op.size) &&
          (e.fwd_store == kNoInst || e.fwd_store < op.seq)) {
        e.fwd_store = op.seq;
        e.flags.set_fwd_full(range_covers(e.addr, e.size, op.addr, op.size));
      }
    }
  }
  if (ledger_ != nullptr) ledger_->on_addr_search(compared);
  return Placement{Placement::Status::kPlaced};
}

void ConventionalLsq::drain(std::vector<InstSeq>& /*newly_placed*/) {}

bool ConventionalLsq::is_placed(InstSeq seq) const {
  const Entry* e = find(seq);
  return e != nullptr && e->flags.addr_known();
}

LoadPlan ConventionalLsq::plan_load(InstSeq seq) const {
  const Entry* e = find(seq);
  assert(e != nullptr && e->flags.is_load() && e->flags.addr_known());
  LoadPlan p;
  // A reference to an already-committed store means memory is up to date:
  // fall back to the cache (lazy form of the eager clearing on commit).
  if (e->fwd_store == kNoInst || !store_live(e->fwd_store)) {
    p.kind = LoadPlan::Kind::kCacheAccess;
    return p;
  }
  const Entry* s = find(e->fwd_store);
  assert(s != nullptr);
  p.store = e->fwd_store;
  if (!e->flags.fwd_full()) {
    p.kind = LoadPlan::Kind::kWaitCommit;
  } else if (s->flags.data_ready()) {
    p.kind = LoadPlan::Kind::kForwardReady;
  } else {
    p.kind = LoadPlan::Kind::kForwardWait;
  }
  return p;
}

void ConventionalLsq::on_load_complete(InstSeq seq) {
  assert(find(seq) != nullptr);
  if (ledger_ != nullptr) ledger_->on_datum_write();
  // A forwarded load also read the store's datum (only if the store is
  // still queued — after its commit the datum came from the cache).
  const Entry* e = find(seq);
  if (e->fwd_store != kNoInst && store_live(e->fwd_store) &&
      e->flags.fwd_full() && ledger_ != nullptr) {
    ledger_->on_datum_read();
  }
}

void ConventionalLsq::on_store_data_ready(InstSeq seq) {
  Entry* e = find(seq);
  assert(e != nullptr && !e->flags.is_load());
  e->flags.set_data_ready(true);
  if (ledger_ != nullptr) ledger_->on_datum_write();
}

void ConventionalLsq::on_commit(InstSeq seq) {
  assert(!entries_.empty() && entries_.front().seq == seq);
  const Entry& e = entries_.front();
  if (!e.flags.is_load() && ledger_ != nullptr) {
    ledger_->on_datum_read();  // the store's datum leaves for the cache
    ledger_->on_addr_read();
  }
  // Loads that planned to forward from this store fall back to the cache;
  // their references go stale and store_live() filters them at read time,
  // so commit is O(1) instead of an O(n) ref sweep + front erase.
  where_.erase(seq);
  ++occ_epoch_;
  {
    RingDeque<InstSeq>& ring = e.flags.is_load() ? load_seqs_ : store_seqs_;
    assert(!ring.empty() && ring.front() == seq);
    ring.pop_front();
  }
  entries_.pop_front();
  ++front_abs_;
}

void ConventionalLsq::squash_from(InstSeq seq) {
  ++occ_epoch_;
  while (!entries_.empty() && entries_.back().seq >= seq) {
    where_.erase(entries_.back().seq);
    entries_.pop_back();
    --next_abs_;
  }
  while (!load_seqs_.empty() && load_seqs_.back() >= seq) load_seqs_.pop_back();
  while (!store_seqs_.empty() && store_seqs_.back() >= seq) {
    store_seqs_.pop_back();
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.fwd_store != kNoInst && e.fwd_store >= seq) {
      e.fwd_store = kNoInst;
      e.flags.set_fwd_full(false);
    }
  }
}

OccupancySample ConventionalLsq::occupancy() const {
  OccupancySample s;
  s.entries_used = static_cast<std::uint32_t>(entries_.size());
  return s;
}

OccupancySample ConventionalLsq::recount_occupancy() const {
  // From-scratch recount off the age ring, cross-checking the O(1) seq
  // table: every queued entry must resolve through find() to itself, and
  // the absolute-index arithmetic must agree with the ring position.
  OccupancySample sample;
  std::size_t loads = 0;
  std::size_t stores = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    assert(i == 0 || entries_[i - 1].seq < e.seq);
    const std::uint64_t* abs = where_.find(e.seq);
    assert(abs != nullptr && *abs - front_abs_ == i);
    assert(find(e.seq) == &e);
    (void)abs;
    ++(e.flags.is_load() ? loads : stores);
    ++sample.entries_used;
  }
  assert(front_abs_ + entries_.size() == next_abs_);
  // The kind-split age rings must mirror the queue exactly — the
  // disambiguation walks read them instead of entries_.
  assert(loads == load_seqs_.size());
  assert(stores == store_seqs_.size());
  (void)loads;
  (void)stores;
  assert(sample.entries_used == occupancy().entries_used);
  return sample;
}

}  // namespace samie::lsq
