// Template member definitions for core::Core<LsqT, ObserverT> (included
// by core.h). Keep this file free of non-template code; shared helpers
// live in the anonymous-namespace-free `detail` namespace so every
// instantiation compiles from one source of truth.
//
// Wake-ledger maintenance (the incremental quiescence check). Each
// WakeBit mirrors one clause of `quiescent()`'s negation; the post-cycle
// check is `wake_ledger_ == 0`, and `CoreConfig::check_quiescence`
// cross-checks it against the from-scratch predicate every stepped
// cycle. Site-by-site:
//   kWakeCommitHead — recomputed at the end of commit_stage; set by
//     complete() on the head; recomputed by on_agen_complete on the head
//     (a kBuffered placement makes the §3.3 predicate true), by
//     memory_stage when a drain placed anything (placement can flip the
//     predicate either way, for the head directly or via AddrBuffer
//     headroom), and at the end of squash_after/full_flush (an LSQ
//     squash can raise headroom). The remaining transition — the
//     headroom/wait-counter disjunct becoming true for a head that is
//     not agen-issued — is always accompanied by that head sitting in a
//     ready queue (it entered when wait_agen hit 0 and agen gating only
//     re-queues), so kWakeReady covers the verdict.
//   kWakeReady — set by every ready-queue push (push_ready_*);
//     recomputed at the end of issue_stage (the only stage that pops)
//     and cleared by full_flush (the only other consumer).
//   kWakeLsq — recomputed wherever LSQ deferred work can change: end of
//     commit_stage (on_commit can unblock the ARB retry FIFO), after
//     on_address_ready in on_agen_complete (kBuffered grows a buffer),
//     end of memory_stage (drain consumes / proves itself blocked), and
//     after squash_from in the recovery paths.
//   kWakeDispatch / kWakeFetch — recomputed at the end of fetch_stage;
//     no later code in a cycle mutates the fetch queue, the dispatch
//     resources, or the stall state. kWakeFetch is evaluated for
//     cycle_ + 1 because the quiescence check runs after the increment.
#pragma once

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace samie::core {

namespace detail {

[[nodiscard]] constexpr std::uint64_t value_mask(std::uint32_t bytes) noexcept {
  return bytes >= 8 ? ~0ULL : ((1ULL << (8 * bytes)) - 1);
}

/// Calendar-wheel span sizing rule: one power of two above the largest
/// latency any completion can be scheduled with — the worst-case data
/// access (TLB walk + L1D + L2 + memory fill) or the slowest functional
/// unit — so steady-state scheduling never touches the overflow list.
[[nodiscard]] inline std::size_t completion_wheel_span(
    const CoreConfig& cfg, const mem::MemoryHierarchy& memory) {
  Cycle worst = memory.worst_case_data_latency();
  for (const Cycle lat : {cfg.lat_int_alu, cfg.lat_int_mul, cfg.lat_int_div,
                          cfg.lat_fp_alu, cfg.lat_fp_mul, cfg.lat_fp_div}) {
    worst = std::max(worst, lat);
  }
  return static_cast<std::size_t>(std::bit_ceil(worst + 2));
}

/// `cfg`, or std::invalid_argument naming a field that is zero among
/// those every instruction needs: a width, a capacity, a register count,
/// the D-cache ports or a functional-unit count. With any of them zero
/// the pipeline wedges and steps until the commit watchdog fires.
[[nodiscard]] inline const CoreConfig& checked_config(const CoreConfig& cfg) {
  const std::pair<const char*, std::uint32_t> fields[] = {
      {"fetch_width", cfg.fetch_width},
      {"dispatch_width", cfg.dispatch_width},
      {"issue_width_int", cfg.issue_width_int},
      {"issue_width_fp", cfg.issue_width_fp},
      {"commit_width", cfg.commit_width},
      {"rob_size", cfg.rob_size},
      {"iq_int", cfg.iq_int},
      {"iq_fp", cfg.iq_fp},
      {"fetch_queue", cfg.fetch_queue},
      {"int_regs", cfg.int_regs},
      {"fp_regs", cfg.fp_regs},
      {"dcache_ports", cfg.dcache_ports},
      {"n_int_alu", cfg.n_int_alu},
      {"n_int_muldiv", cfg.n_int_muldiv},
      {"n_fp_alu", cfg.n_fp_alu},
      {"n_fp_muldiv", cfg.n_fp_muldiv},
  };
  for (const auto& [name, value] : fields) {
    if (value == 0) {
      throw std::invalid_argument(std::string("CoreConfig: ") + name +
                                  " must be >= 1");
    }
  }
  return cfg;
}

}  // namespace detail

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
Core<LsqT, ObserverT>::Core(const CoreConfig& cfg, trace::TraceWindow trace, LsqT& lsq,
                 mem::MemoryHierarchy& memory,
                 branch::HybridPredictor& predictor, branch::Btb& btb,
                 energy::DcacheLedger* dcache_ledger,
                 energy::DtlbLedger* dtlb_ledger, ObserverT* observer)
    : cfg_(detail::checked_config(cfg)),
      trace_(std::move(trace)),
      lsq_(lsq),
      mem_(memory),
      predictor_(predictor),
      btb_(btb),
      dcache_ledger_(dcache_ledger),
      dtlb_ledger_(dtlb_ledger),
      observer_(observer),
      rob_status_(cfg.rob_size),
      rob_token_(cfg.rob_size),
      rob_op_(cfg.rob_size, nullptr),
      rob_lists_(cfg.rob_size),
      rob_cold_(cfg.rob_size),
      dep_slab_(cfg.rob_size),
      rename_(kNumArchRegs, kNoInst),
      completions_(detail::completion_wheel_span(cfg, memory)),
      int_alu_(cfg.n_int_alu),
      fp_alu_(cfg.n_fp_alu),
      int_muldiv_(cfg.n_int_muldiv),
      fp_muldiv_(cfg.n_fp_muldiv) {
  if (trace_.behind() <
      std::uint64_t{cfg.rob_size} + std::uint64_t{cfg.fetch_queue}) {
    throw std::invalid_argument(
        "trace window keeps " + std::to_string(trace_.behind()) +
        " records behind fetch; the core holds up to rob_size + "
        "fetch_queue = " +
        std::to_string(std::uint64_t{cfg.rob_size} + cfg.fetch_queue));
  }
  if (std::has_single_bit(static_cast<std::uint64_t>(cfg.rob_size))) {
    rob_mask_ = cfg.rob_size - 1;
  }
  fetch_queue_.reserve(cfg.fetch_queue);
  ready_int_.reserve(cfg.rob_size);
  ready_fp_.reserve(cfg.rob_size);
  ready_mem_.reserve(cfg.rob_size);
  unplaced_stores_.reserve(cfg.rob_size);
  ordering_waiting_loads_.reserve(cfg.rob_size);
  drain_scratch_.reserve(64);
  eligible_scratch_.reserve(64);
  issue_batch_.reserve(cfg.rob_size);
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
std::uint64_t Core<LsqT, ObserverT>::forwarded_value(const trace::MicroOp& load,
                                          const trace::MicroOp& store) const {
  const std::uint64_t shift = (load.addr - store.addr) * 8;
  return (store.value >> shift) & detail::value_mask(load.mem_size);
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::schedule_completion(InstSeq seq, Cycle at) {
  completions_.schedule(cycle_, at,
                        CompletionRef{seq, rob_token_[rob_index(seq)].gen});
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::wake_dependents(std::size_t idx) {
  if (dep_slab_.empty(rob_lists_[idx].dependents)) return;
  // Detach-then-iterate: the chain is stolen from the slot before the
  // wake handlers run, so re-entrant pushes (a woken load registering on
  // another store's waiter list) can never touch the chunks in flight.
  DepSlab::List deps = dep_slab_.detach(rob_lists_[idx].dependents);
  dep_slab_.for_each(deps, [this](const DepRef& ref) {
    const InstSeq d = ref.seq;
    // Stale tokens (squashed dependents — possibly re-dispatched under a
    // new gen after refetch) die here; squash never scrubs these lists.
    if (!ref_live(d, ref.gen)) return;
    SlotStatus& dep = status_of(d);
    if (static_cast<SrcRole>(ref.role) == SrcRole::kAgen) {
      assert(dep.wait_agen() > 0);
      if (dep.dec_wait_agen() && dep.in_iq()) {
        const SeqRef r = ref_of(d);
        if (dep.is_fp()) {
          push_ready_fp(r);
        } else {
          push_ready_int(r);
        }
        // A head whose last address source just arrived can satisfy the
        // §3.3 predicate's headroom disjunct — re-derive its clause so
        // the commit gate cannot sit on a stale bit.
        if (d == head_) {
          wake_assign(kWakeCommitHead, commit_head_actionable());
        }
      }
    } else {
      assert(dep.wait_data() > 0);
      if (dep.dec_wait_data()) {
        dep.set(SlotStatus::kDataReady);
        if (dep.placed()) {
          lsq_.on_store_data_ready(d);
          // Forward-waiting loads can now take the store's datum.
          SlotLists& dl = rob_lists_[rob_index(d)];
          if (!dep_slab_.empty(dl.fwd_waiters)) {
            DepSlab::List w = dep_slab_.detach(dl.fwd_waiters);
            dep_slab_.for_each(w, [this](const DepRef& l) {
              if (ref_live(l.seq, l.gen)) try_schedule_load(l.seq);
            });
            dep_slab_.free(w);
          }
          if (!dep.executing() && !dep.completed()) {
            dep.set(SlotStatus::kExecuting);
            schedule_completion(d, cycle_ + 1);
          }
        }
      }
    }
  });
  dep_slab_.free(deps);
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
bool Core<LsqT, ObserverT>::load_ordering_clear(InstSeq seq) const {
  return unplaced_stores_.empty() || unplaced_stores_.min() > seq;
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::try_schedule_load(InstSeq seq) {
  if (!live(seq)) return;
  SlotStatus& f = status_of(seq);
  if (!f.placed() || !f.agen_done() || f.completed() || f.executing()) return;
  if (!load_ordering_clear(seq)) {
    ordering_waiting_loads_.insert(seq);
    return;
  }
  ordering_waiting_loads_.erase(seq);

  const lsq::LoadPlan plan = lsq_.plan_load(seq);
  switch (plan.kind) {
    case lsq::LoadPlan::Kind::kCacheAccess:
      f.set(SlotStatus::kExecuting);
      push_ready_mem(ref_of(seq));
      break;
    case lsq::LoadPlan::Kind::kForwardReady: {
      f.set(SlotStatus::kExecuting);
      ++res_.forwarded_loads;
      assert(plan.store >= head_);  // in flight, so still in the window
      rob_cold_[rob_index(seq)].load_value =
          forwarded_value(op_of(seq), trace_[plan.store]);
      schedule_completion(seq, cycle_ + 1);
      break;
    }
    case lsq::LoadPlan::Kind::kForwardWait:
      dep_slab_.push(rob_lists_[rob_index(plan.store)].fwd_waiters,
                     DepRef{seq, rob_token_[rob_index(seq)].gen, 0});
      break;
    case lsq::LoadPlan::Kind::kWaitCommit:
      ++res_.partial_forward_waits;
      dep_slab_.push(rob_lists_[rob_index(plan.store)].commit_waiters,
                     DepRef{seq, rob_token_[rob_index(seq)].gen, 0});
      break;
  }
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::on_store_placed(InstSeq seq) {
  SlotStatus& f = status_of(seq);
  f.set(SlotStatus::kPlaced);
  unplaced_stores_.erase(seq);
  // Data that arrived before (or with) placement is written to the slot
  // now; this is the single point that informs the LSQ of store data.
  if (f.data_ready()) {
    lsq_.on_store_data_ready(seq);
    if (!f.executing() && !f.completed()) {
      f.set(SlotStatus::kExecuting);
      schedule_completion(seq, cycle_ + 1);
    }
  }
  // readyBit sweep (paper §3.1): loads up to the next unknown-address
  // store become eligible.
  const InstSeq min_unplaced =
      unplaced_stores_.empty() ? kNoInst : unplaced_stores_.min();
  eligible_scratch_.clear();
  for (InstSeq l : ordering_waiting_loads_) {
    if (l >= min_unplaced) break;
    eligible_scratch_.push_back(l);
  }
  // The eligible loads are exactly the sorted prefix; drop them in one
  // compaction before rescheduling (try_schedule_load may re-insert a
  // load whose plan still blocks, so the erase must happen first).
  ordering_waiting_loads_.erase_prefix(eligible_scratch_.size());
  for (InstSeq l : eligible_scratch_) try_schedule_load(l);
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::on_agen_complete(InstSeq seq) {
  const std::size_t idx = rob_index(seq);
  SlotStatus& f = rob_status_[idx];
  f.set(SlotStatus::kAgenDone);
  assert(agens_outstanding_ > 0);
  --agens_outstanding_;
  const trace::MicroOp& op = *rob_op_[idx];
  const bool is_load = f.op_class() == trace::OpClass::kLoad;
  lsq::MemOpDesc desc;
  desc.seq = seq;
  desc.addr = op.addr;
  desc.size = op.mem_size;
  desc.is_load = is_load;
  // Store data is reported through on_store_data_ready after placement so
  // the datum write is charged exactly once (see on_store_placed).
  desc.data_ready = false;
  const lsq::Placement p = lsq_.on_address_ready(desc);
  switch (p.status) {
    case lsq::Placement::Status::kPlaced:
      f.set(SlotStatus::kPlaced);
      if (is_load) {
        try_schedule_load(seq);
      } else {
        on_store_placed(seq);
      }
      break;
    case lsq::Placement::Status::kBuffered:
      break;  // drain() will surface it
    case lsq::Placement::Status::kRejected:
      // The agen gate makes this unreachable; treat as a hard error so
      // configuration bugs surface loudly.
      throw std::logic_error("LSQ rejected a placement despite the agen gate");
  }
  // Ledger: only a kBuffered placement changes deferred work (kPlaced
  // touches neither the AddrBuffer nor the retry FIFO). The head clause
  // is re-derived for a placement of the head itself (either way) and
  // for *any* buffered placement — the AddrBuffer just shrank the
  // placement headroom, which can make the §3.3 predicate true for a
  // head that is still waiting to compute its address.
  if (p.status == lsq::Placement::Status::kBuffered) {
    wake_assign(kWakeLsq, lsq_.has_pending_work());
    wake_assign(kWakeCommitHead, commit_head_actionable());
  } else if (seq == head_) {
    wake_assign(kWakeCommitHead, commit_head_actionable());
  }
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::handle_eviction(bool evicted, std::uint32_t set,
                                 bool had_present_bit) {
  if (evicted && had_present_bit) lsq_.on_cache_line_replaced(set);
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::execute_load_access(InstSeq seq) {
  const std::size_t idx = rob_index(seq);
  SlotStatus& f = rob_status_[idx];
  const trace::MicroOp& op = *rob_op_[idx];
  // Re-plan: a store may have been placed between scheduling and issue.
  const lsq::LoadPlan plan = lsq_.plan_load(seq);
  if (plan.kind != lsq::LoadPlan::Kind::kCacheAccess) {
    f.clear(SlotStatus::kExecuting);
    try_schedule_load(seq);
    return;
  }
  ++dcache_ports_used_;
  const Addr addr = op.addr;
  const lsq::CacheHints hints = lsq_.cache_hints(seq);
  Cycle lat = 0;
  if (hints.translation_known) {
    ++res_.dtlb_cached;
    if (dtlb_ledger_ != nullptr) dtlb_ledger_->on_cached_translation();
  }
  if (hints.way_known) {
    const auto k = mem_.data_access_known(hints.set, hints.way, addr);
    // The presentBit protocol guarantees residency; a violation is a bug.
    if (!k.ok) throw std::logic_error("presentBit protocol violation (load)");
    lat = k.latency;
    if (cfg_.exploit_known_line_latency && lat > 1) --lat;
    ++res_.dcache_way_known;
    if (dcache_ledger_ != nullptr) dcache_ledger_->on_way_known_access();
  } else {
    const mem::DataAccess a = hints.translation_known
                                  ? mem_.data_access_translated(addr)
                                  : mem_.data_access(addr);
    if (!hints.translation_known) {
      ++res_.dtlb_accesses;
      if (dtlb_ledger_ != nullptr) dtlb_ledger_->on_access();
    }
    lat = a.latency;
    ++res_.dcache_full;
    if (dcache_ledger_ != nullptr) dcache_ledger_->on_full_access();
    if (lsq_.on_cache_access_complete(seq, a.set, a.way)) {
      mem_.l1d().set_present_bit(a.set, a.way, true);
    }
    handle_eviction(a.evicted, a.evicted_set, a.evicted_present_bit);
  }
  rob_cold_[idx].load_value = memory_state_.read(addr, op.mem_size);
  ++res_.loads_executed;
  schedule_completion(seq, cycle_ + lat);
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::complete(InstSeq seq) {
  const std::size_t idx = rob_index(seq);
  SlotStatus& f = rob_status_[idx];
  assert(!f.completed());
  f.set(SlotStatus::kCompleted);
  f.clear(SlotStatus::kExecuting);
  const trace::OpClass cls = f.op_class();
  if (cls == trace::OpClass::kLoad) {
    if (rob_cold_[idx].load_value != rob_op_[idx]->value) {
      ++res_.value_mismatches;
    }
    lsq_.on_load_complete(seq);
  }
  wake_dependents(idx);
  // Ledger: a completed head is commit work (commit already ran this
  // cycle); the bit holds until commit retires it.
  if (seq == head_) wake_set(kWakeCommitHead);
  if (cls == trace::OpClass::kBranch && f.mispredicted()) {
    ++res_.mispredict_squashes;
    squash_after(seq);
  }
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::writeback_stage() {
  completions_.pop_due(cycle_, [this](const CompletionRef& c) {
    const std::size_t idx = rob_index(c.seq);
    // Stale events (squashed instruction, flushed pipeline, re-dispatched
    // slot) fail the (seq, gen) token match and are dropped here — the
    // squash paths never walk the wheel.
    const SlotToken t = rob_token_[idx];
    if (t.seq != c.seq || t.gen != c.gen) return;
    const SlotStatus s = rob_status_[idx];
    if (s.is_mem() && !s.agen_done()) {
      on_agen_complete(c.seq);
    } else if (!s.completed()) {
      complete(c.seq);
    }
  });
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::memory_stage() {
  // The drain hook's own contract makes the skip exact: pending work
  // false means the buffer is empty (SAMIE, conventional) or the retry
  // FIFO head is proven stuck against unchanged state (ARB) — in both
  // cases drain() would mutate nothing and charge nothing, so not
  // calling it is bit-identical and saves the provably-failing retry
  // the always-walk loop used to pay every stepped cycle.
  if (!lsq_.has_pending_work()) {
    // Every pending-work transition to false re-derives the bit at its
    // site, so it must already be clear here.
    assert((wake_ledger_ & kWakeLsq) == 0);
    return;
  }
  drain_scratch_.clear();
  lsq_.drain(drain_scratch_);
  for (InstSeq seq : drain_scratch_) {
    if (!live(seq)) continue;
    SlotStatus& f = status_of(seq);
    f.set(SlotStatus::kPlaced);
    if (f.op_class() == trace::OpClass::kLoad) {
      try_schedule_load(seq);
    } else {
      on_store_placed(seq);
    }
  }
  // Ledger: a clear kWakeLsq proves drain() was a no-op (nothing since
  // the last re-derivation could have added deferred work), so the bit
  // is re-derived only when it was set — drain consumed work or proved
  // itself blocked (the ARB sets drain_blocked_ on a failed retry). A
  // successful placement can also flip the head's §3.3 predicate —
  // directly, or through the AddrBuffer headroom it freed.
  if ((wake_ledger_ & kWakeLsq) != 0) {
    wake_assign(kWakeLsq, lsq_.has_pending_work());
    if (!drain_scratch_.empty()) {
      wake_assign(kWakeCommitHead, commit_head_actionable());
    }
  }
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::issue_stage() {
  // Loads cleared for memory access contend for the remaining cache ports.
  while (!ready_mem_.empty()) {
    if (dcache_ports_used_ >= cfg_.dcache_ports) break;
    const SeqRef ref = ready_mem_.front();
    ready_mem_.pop_front();
    if (!ref_live(ref.seq, ref.gen)) continue;  // squash-stale token
    const SlotStatus s = status_of(ref.seq);
    if (s.completed() || !s.executing()) continue;
    execute_load_access(ref.seq);
  }

  // INT side: agen, integer compute, branches. One pass over the ready
  // ring, stopping at the issue width exactly as the stage's width gate
  // demands (entries beyond it are never examined — the ledger proof
  // requires re-arbitration of *examined* entries only). Skipped entries
  // collect in the scratch ring and re-enter at the front in original
  // order; the occupying pools arbitrate against a per-cycle snapshot of
  // their free units (taken lazily on the first mul/div) instead of
  // rescanning every unit per entry.
  if (!ready_int_.empty()) {
  std::uint32_t issued = 0;
  bool int_arb_begun = false;
  issue_batch_.clear();
  while (!ready_int_.empty() && issued < cfg_.issue_width_int) {
    const SeqRef ref = ready_int_.front();
    const InstSeq seq = ref.seq;
    ready_int_.pop_front();
    if (!ref_live(seq, ref.gen)) continue;
    SlotStatus& f = status_of(seq);
    if (!f.in_iq() || f.wait_agen() > 0) continue;
    const trace::OpClass op = f.op_class();
    bool ok = false;
    Cycle latency = cfg_.lat_int_alu;
    if (trace::is_mem(op)) {
      if (agens_outstanding_ >= lsq_.placement_headroom()) {
        ++res_.agen_gated;
        issue_batch_.push_back(ref);
        continue;
      }
      ok = int_alu_.try_issue();
      if (ok) {
        f.set(SlotStatus::kAgenIssued);
        ++agens_outstanding_;
      }
    } else if (op == trace::OpClass::kIntMul) {
      if (!int_arb_begun) {
        int_muldiv_.begin_arbitration(cycle_);
        int_arb_begun = true;
      }
      ok = int_muldiv_.try_issue_batched(cycle_, 1);
      latency = cfg_.lat_int_mul;
    } else if (op == trace::OpClass::kIntDiv) {
      if (!int_arb_begun) {
        int_muldiv_.begin_arbitration(cycle_);
        int_arb_begun = true;
      }
      ok = int_muldiv_.try_issue_batched(cycle_, cfg_.lat_int_div);
      latency = cfg_.lat_int_div;
    } else {
      ok = int_alu_.try_issue();
    }
    if (!ok) {
      issue_batch_.push_back(ref);
      continue;
    }
    f.clear(SlotStatus::kInIq);
    assert(iq_int_used_ > 0);
    --iq_int_used_;
    ++issued;
    schedule_completion(seq, cycle_ + latency);
  }
  for (auto it = issue_batch_.rbegin(); it != issue_batch_.rend(); ++it) {
    ready_int_.push_front(*it);
  }
  }

  // FP side (same structure).
  if (!ready_fp_.empty()) {
  std::uint32_t issued = 0;
  bool fp_arb_begun = false;
  issue_batch_.clear();
  while (!ready_fp_.empty() && issued < cfg_.issue_width_fp) {
    const SeqRef ref = ready_fp_.front();
    const InstSeq seq = ref.seq;
    ready_fp_.pop_front();
    if (!ref_live(seq, ref.gen)) continue;
    SlotStatus& f = status_of(seq);
    if (!f.in_iq() || f.wait_agen() > 0) continue;
    const trace::OpClass op = f.op_class();
    bool ok = false;
    Cycle latency = cfg_.lat_fp_alu;
    if (op == trace::OpClass::kFpMul) {
      if (!fp_arb_begun) {
        fp_muldiv_.begin_arbitration(cycle_);
        fp_arb_begun = true;
      }
      ok = fp_muldiv_.try_issue_batched(cycle_, 1);
      latency = cfg_.lat_fp_mul;
    } else if (op == trace::OpClass::kFpDiv) {
      if (!fp_arb_begun) {
        fp_muldiv_.begin_arbitration(cycle_);
        fp_arb_begun = true;
      }
      ok = fp_muldiv_.try_issue_batched(cycle_, cfg_.lat_fp_div);
      latency = cfg_.lat_fp_div;
    } else {
      ok = fp_alu_.try_issue();
    }
    if (!ok) {
      issue_batch_.push_back(ref);
      continue;
    }
    f.clear(SlotStatus::kInIq);
    assert(iq_fp_used_ > 0);
    --iq_fp_used_;
    ++issued;
    schedule_completion(seq, cycle_ + latency);
  }
  for (auto it = issue_batch_.rbegin(); it != issue_batch_.rend(); ++it) {
    ready_fp_.push_front(*it);
  }
  }

  // Ledger: issue is the only stage that pops the ready rings, so their
  // end-of-stage emptiness is final up to later pushes (which set the
  // bit themselves). A clear bit proves the rings were already empty —
  // nothing to re-derive.
  if ((wake_ledger_ & kWakeReady) != 0) {
    wake_assign(kWakeReady, any_ready_queue());
  }
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::dispatch_stage() {
  const bool rob_was_empty = head_ == tail_;
  std::uint32_t n = 0;
  for (; n < cfg_.dispatch_width && !fetch_queue_.empty(); ++n) {
    // Head-of-queue resource checks: the same predicate the quiescence
    // ledger consults (in-order dispatch: a blocked head blocks all).
    if (dispatch_blocked()) break;
    const Fetched fr = fetch_queue_.front();
    const trace::MicroOp& op = trace_[fr.seq];
    const bool fp = fr.fp;
    const bool mem_op = fr.mem;

    fetch_queue_.pop_front();
    const InstSeq seq = fr.seq;
    assert(seq == tail_);
    const std::size_t idx = rob_index(seq);
    SlotToken& tok = rob_token_[idx];
    tok.seq = seq;
    ++tok.gen;  // new incarnation: completion events of prior occupants die
    rob_op_[idx] = &op;
    SlotStatus& f = rob_status_[idx];
    f.reset(SlotStatus::kInIq |
            (fr.mispredicted ? SlotStatus::kMispredicted : 0U) |
            (mem_op ? SlotStatus::kIsMem : 0U) |
            (fp ? SlotStatus::kIsFp : 0U) |
            (static_cast<std::uint32_t>(op.op) << SlotStatus::kOpShift));
    rob_cold_[idx] = SlotCold{};
    // The slot's lists were returned to the slab at commit/squash/flush
    // (every way a slot dies frees them), so dispatch has nothing to
    // clear — the invariant the dep-slab leak test pins down.
    assert(dep_slab_.empty(rob_lists_[idx].dependents) &&
           dep_slab_.empty(rob_lists_[idx].fwd_waiters) &&
           dep_slab_.empty(rob_lists_[idx].commit_waiters));
    tail_ = seq + 1;

    auto add_dep = [&](RegId src, SrcRole role) {
      if (src == kNoReg) return;
      const InstSeq p = rename_[src];
      if (p != kNoInst && live(p) && !status_of(p).completed()) {
        dep_slab_.push(rob_lists_[rob_index(p)].dependents,
                       DepRef{seq, tok.gen, static_cast<std::uint8_t>(role)});
        if (role == SrcRole::kAgen) {
          f.inc_wait_agen();
        } else {
          f.inc_wait_data();
        }
      }
    };

    if (op.op == trace::OpClass::kStore) {
      add_dep(op.src1, SrcRole::kAgen);   // address base
      add_dep(op.src2, SrcRole::kData);   // store data
    } else {
      add_dep(op.src1, SrcRole::kAgen);
      add_dep(op.src2, SrcRole::kAgen);
    }

    if (op.dst != kNoReg) {
      (is_fp_reg(op.dst) ? fp_regs_used_ : int_regs_used_)++;
      rob_cold_[idx].dst = op.dst;
      rob_cold_[idx].prev_rename = rename_[op.dst];  // O(squashed) undo
      rename_[op.dst] = seq;
    }

    if (mem_op) {
      lsq_.on_dispatch(seq, fr.load);
      if (!fr.load) {
        unplaced_stores_.insert(seq);
        if (f.wait_data() == 0) f.set(SlotStatus::kDataReady);
      }
    }

    (fp ? iq_fp_used_ : iq_int_used_)++;
    if (f.wait_agen() == 0) {
      const SeqRef r{seq, tok.gen};
      if (fp) {
        push_ready_fp(r);
      } else {
        push_ready_int(r);
      }
    }
  }
  // Ledger: a dispatch into an empty ROB created a brand-new head whose
  // §3.3 clause nobody else derives (a dep-free memory op against a full
  // AddrBuffer is flush-pending immediately).
  if (rob_was_empty && head_ != tail_) {
    wake_assign(kWakeCommitHead, commit_head_actionable());
  }
  // Ledger: the stage decides the dispatch clause from its own exit —
  // empty queue or a blocked head is a settled "no work" (only fetch
  // runs later, and appending to the queue cannot unblock its head); an
  // exhausted width with instructions still queued leaves the clause
  // open for fetch_stage to re-derive.
  if (fetch_queue_.empty() || n < cfg_.dispatch_width) {
    wake_assign(kWakeDispatch, false);
    dispatch_clause_open_ = false;
  } else {
    dispatch_clause_open_ = true;
  }
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::fetch_stage() {
  const bool was_empty = fetch_queue_.empty();
  if (cycle_ >= fetch_stall_until_) {
    for (std::uint32_t n = 0; n < cfg_.fetch_width; ++n) {
      if (fetch_queue_.size() >= cfg_.fetch_queue) break;
      if (fetch_seq_ >= trace_.decoded_end()) {
        if (fetch_seq_ >= trace_.size()) break;
        // Fetch reached a block not yet decoded. Every record still read
        // lies in [head_, fetch_seq_), fewer than rob_size + fetch_queue.
        trace_.decode_next(head_);
      }
      const trace::MicroOp& op = trace_[fetch_seq_];

      const Addr line = op.pc >> 5U;
      if (line != last_fetch_line_) {
        const Cycle lat = mem_.inst_access(op.pc);
        last_fetch_line_ = line;
        if (lat > mem_.l1i().hit_latency()) {
          fetch_stall_until_ = cycle_ + lat;
          break;
        }
      }

      // Built in place: a stack copy stored field by field and then
      // reloaded whole defeats store-to-load forwarding on every fetch.
      Fetched& fr = fetch_queue_.emplace_back();
      fr.seq = fetch_seq_;
      fr.dst = op.dst;
      fr.fp = trace::is_fp(op.op);
      fr.mem = trace::is_mem(op.op);
      fr.load = op.op == trace::OpClass::kLoad;
      ++fetch_seq_;
      if (op.op == trace::OpClass::kBranch) {
        const bool pred = predictor_.predict_and_update(op.pc, op.taken);
        const branch::Btb::Result target = btb_.lookup(op.pc);
        if (op.taken) btb_.update(op.pc, op.addr);
        fr.mispredicted = (pred != op.taken) || (pred && op.taken && !target.hit);
        if (pred) break;  // a predicted-taken branch ends the fetch group
      }
    }
  }
  // Ledger: fetch is the last stage, so the dispatch and fetch clauses
  // are final here. The resource predicate is evaluated only when
  // dispatch left the clause open (width exhausted) or this stage gave
  // the queue a new head (pushed into an empty queue) — appending
  // behind a head dispatch already proved blocked changes nothing. The
  // fetch clause is evaluated for cycle_ + 1 — the cycle the
  // post-increment quiescence check (and the first skipped cycle of a
  // fast-forward) actually asks about.
  const bool fetch_able = fetch_queue_.size() < cfg_.fetch_queue &&
                          fetch_seq_ < trace_.size();
  wake_assign(kWakeFetch, fetch_able && cycle_ + 1 >= fetch_stall_until_);
  if (dispatch_clause_open_ || (was_empty && !fetch_queue_.empty())) {
    // Fetch is the last stage, so every other bit is final for the
    // upcoming check. When one of them already proves the cycle
    // non-quiescent, the resource predicate's answer cannot change the
    // verdict — defer it (assign false; the clause is re-derived next
    // cycle, so a deferred false can never outlive the bits that
    // justified it). Only a potentially-quiescent cycle pays for the
    // full evaluation, exactly like the short-circuiting predicate.
    if ((wake_ledger_ & ~static_cast<std::uint32_t>(kWakeDispatch)) != 0) {
      wake_assign(kWakeDispatch, false);
    } else {
      wake_assign(kWakeDispatch,
                  !fetch_queue_.empty() && !dispatch_blocked());
    }
  }
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::squash_after(InstSeq last_kept) {
  const InstSeq first_bad = last_kept + 1;
  if (first_bad >= tail_) {
    // Nothing younger in flight; still redirect fetch.
    fetch_queue_.clear();
    fetch_seq_ = first_bad;
    fetch_stall_until_ = cycle_ + cfg_.redirect_penalty;
    last_fetch_line_ = ~0ULL;
    return;
  }
  lsq_.squash_from(first_bad);
  // One reverse walk over the *squashed range only*. Walking youngest to
  // oldest replays the rename checkpoints in undo order, so the table
  // lands exactly on its state at first_bad's dispatch. (A restored
  // value may name a committed producer — benign, every consumer filters
  // through live().) Nothing else is walked: ready queues, surviving
  // dependent/waiter lists and the wheel all hold (seq, gen) tokens that
  // go stale right here, when the slots clear, and are dropped at pop.
  for (InstSeq s = tail_; s-- > first_bad;) {
    const std::size_t idx = rob_index(s);
    assert(rob_token_[idx].seq == s);
    const SlotStatus f = rob_status_[idx];
    const SlotCold& cold = rob_cold_[idx];
    if (f.agen_issued() && !f.agen_done()) {
      assert(agens_outstanding_ > 0);
      --agens_outstanding_;
    }
    if (cold.dst != kNoReg) {
      auto& used = is_fp_reg(cold.dst) ? fp_regs_used_ : int_regs_used_;
      assert(used > 0);
      --used;
      rename_[cold.dst] = cold.prev_rename;
    }
    if (f.in_iq()) {
      auto& used = f.is_fp() ? iq_fp_used_ : iq_int_used_;
      assert(used > 0);
      --used;
    }
    rob_token_[idx].seq = kNoInst;
    SlotLists& lists = rob_lists_[idx];
    dep_slab_.free(lists.dependents);
    dep_slab_.free(lists.fwd_waiters);
    dep_slab_.free(lists.commit_waiters);
  }
  tail_ = first_bad;

  // The ordering sets are consulted by value (min()), so they must be
  // exact — but they are sorted, so the squash is an O(log n) truncation.
  unplaced_stores_.erase_from(first_bad);
  ordering_waiting_loads_.erase_from(first_bad);

  fetch_queue_.clear();
  fetch_seq_ = first_bad;
  fetch_stall_until_ = cycle_ + cfg_.redirect_penalty;
  last_fetch_line_ = ~0ULL;

  // Ledger: the LSQ squash dropped deferred work (and can raise the
  // AddrBuffer headroom, flipping the head's §3.3 predicate).
  wake_assign(kWakeLsq, lsq_.has_pending_work());
  wake_assign(kWakeCommitHead, commit_head_actionable());
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::full_flush() {
  ++res_.deadlock_flushes;
  lsq_.squash_from(head_);
  // The flush squashes *everything* in flight, so the same reverse
  // checkpoint replay used by squash_after restores the rename table in
  // O(squashed) — the former O(arch-regs + ROB) "clear and refetch from
  // head_" rebuild is gone. After undoing every in-flight dispatch the
  // table holds only pre-head_ producers, all committed, all filtered by
  // live(): semantically the empty table.
  for (InstSeq s = tail_; s-- > head_;) {
    const std::size_t idx = rob_index(s);
    assert(rob_token_[idx].seq == s);
    const SlotCold& cold = rob_cold_[idx];
    if (cold.dst != kNoReg) rename_[cold.dst] = cold.prev_rename;
    rob_token_[idx].seq = kNoInst;
    SlotLists& lists = rob_lists_[idx];
    dep_slab_.free(lists.dependents);
    dep_slab_.free(lists.fwd_waiters);
    dep_slab_.free(lists.commit_waiters);
  }
  tail_ = head_;
  int_regs_used_ = 0;
  fp_regs_used_ = 0;
  iq_int_used_ = 0;
  iq_fp_used_ = 0;
  unplaced_stores_.clear();
  ordering_waiting_loads_.clear();
  ready_int_.clear();
  ready_fp_.clear();
  ready_mem_.clear();
  // completions_ keeps its (now token-stale) events; see squash_after.
  int_muldiv_.reset();
  fp_muldiv_.reset();
  agens_outstanding_ = 0;
  fetch_queue_.clear();
  fetch_seq_ = head_;
  fetch_stall_until_ = cycle_ + cfg_.redirect_penalty;
  last_fetch_line_ = ~0ULL;

  // Ledger: the ready rings were just cleared (the one consumer besides
  // issue_stage), nothing is in flight, and the LSQ was squashed empty.
  wake_assign(kWakeReady, false);
  wake_assign(kWakeCommitHead, false);
  wake_assign(kWakeLsq, lsq_.has_pending_work());
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::commit_stage() {
  // Wake-ledger bookkeeping: every exit path below decides the commit
  // clause from state it already examined, so the §3.3 predicate is
  // never re-evaluated at stage end; kWakeLsq is re-derived only when
  // an on_commit actually ran (the only LSQ mutation in this stage).
  bool head_clause_known = false;
  bool head_clause = false;
  bool committed_any = false;
  for (std::uint32_t n = 0; n < cfg_.commit_width && head_ < tail_; ++n) {
    const std::size_t idx = rob_index(head_);
    assert(rob_token_[idx].seq == head_);
    const SlotStatus h = rob_status_[idx];
    if (!h.completed()) {
      // Deadlock avoidance (paper §3.3): the oldest instruction cannot be
      // placed — either its address is computed and every candidate slot
      // is held by younger instructions, or its address computation is
      // gated by a full AddrBuffer. Flush the pipeline; the oldest
      // instruction re-enters first and is guaranteed a slot.
      if (deadlock_flush_pending(idx)) {
        full_flush();  // assigns the ledger itself (nothing in flight)
      } else {
        head_clause_known = true;  // head blocked: not completed, no flush
      }
      break;
    }

    const trace::OpClass cls = h.op_class();
    if (cls == trace::OpClass::kStore) {
      if (dcache_ports_used_ >= cfg_.dcache_ports) {
        head_clause_known = true;
        head_clause = true;  // completed head held only by the port limit
        break;
      }
      ++dcache_ports_used_;
      const trace::MicroOp& op = *rob_op_[idx];
      const Addr addr = op.addr;
      const lsq::CacheHints hints = lsq_.cache_hints(head_);
      if (hints.translation_known) {
        ++res_.dtlb_cached;
        if (dtlb_ledger_ != nullptr) dtlb_ledger_->on_cached_translation();
      }
      if (hints.way_known) {
        const auto k = mem_.data_access_known(hints.set, hints.way, addr);
        if (!k.ok) throw std::logic_error("presentBit protocol violation (store)");
        ++res_.dcache_way_known;
        if (dcache_ledger_ != nullptr) dcache_ledger_->on_way_known_access();
      } else {
        const mem::DataAccess a = hints.translation_known
                                      ? mem_.data_access_translated(addr)
                                      : mem_.data_access(addr);
        if (!hints.translation_known) {
          ++res_.dtlb_accesses;
          if (dtlb_ledger_ != nullptr) dtlb_ledger_->on_access();
        }
        ++res_.dcache_full;
        if (dcache_ledger_ != nullptr) dcache_ledger_->on_full_access();
        if (lsq_.on_cache_access_complete(head_, a.set, a.way)) {
          mem_.l1d().set_present_bit(a.set, a.way, true);
        }
        handle_eviction(a.evicted, a.evicted_set, a.evicted_present_bit);
      }
      memory_state_.write(addr, op.mem_size, op.value);
      ++res_.stores_committed;
      committed_any = true;
      SlotLists& hl = rob_lists_[idx];
      if (!dep_slab_.empty(hl.commit_waiters)) {
        DepSlab::List w = dep_slab_.detach(hl.commit_waiters);
        lsq_.on_commit(head_);
        dep_slab_.for_each(w, [this](const DepRef& l) {
          if (ref_live(l.seq, l.gen)) try_schedule_load(l.seq);
        });
        dep_slab_.free(w);
      } else {
        lsq_.on_commit(head_);
      }
    } else if (cls == trace::OpClass::kLoad) {
      lsq_.on_commit(head_);
      committed_any = true;
    }

    const RegId dst = rob_cold_[idx].dst;
    if (dst != kNoReg) {
      auto& used = is_fp_reg(dst) ? fp_regs_used_ : int_regs_used_;
      assert(used > 0);
      --used;
      if (rename_[dst] == head_) rename_[dst] = kNoInst;
    }
    rob_token_[idx].seq = kNoInst;
    // Return the slot's dependence chunks now (they are empty in the
    // common case: completion woke the dependents, data-ready woke the
    // forward waiters) so the slab never carries refs for dead slots.
    SlotLists& lists = rob_lists_[idx];
    dep_slab_.free(lists.dependents);
    dep_slab_.free(lists.fwd_waiters);
    dep_slab_.free(lists.commit_waiters);
    ++res_.committed;
    ++head_;
    last_commit_cycle_ = cycle_;
  }
  wake_assign(kWakeCommitHead,
              head_clause_known ? head_clause : commit_head_actionable());
  // on_commit can unblock the ARB retry FIFO; without one the stage
  // never touched the LSQ and the bit stands.
  if (committed_any) wake_assign(kWakeLsq, lsq_.has_pending_work());
}

// The from-scratch quiescence predicate: proves no stage can change
// architectural state at cycle_ — and, because every clause below
// depends only on state that stages themselves mutate, at any later
// cycle until a wake source (calendar-wheel event, fetch re-enable,
// hierarchy completion, watchdog) fires. Stage by stage:
//   commit    — the head is not completed and the §3.3 deadlock-flush
//               predicate is false; both change only via writeback.
//   writeback — no event is due before the wheel's next_event_cycle
//               (the jump target), and stale events popping is a no-op.
//   memory    — drain() is provably a no-op (the queue's has_pending_work;
//               SAMIE reports work whenever the AddrBuffer is non-empty
//               because failed retries still charge energy).
//   issue     — the ready ledgers are empty. A non-empty ledger is never
//               skippable: gated agens count agen_gated per cycle, and
//               FU-blocked entries re-arbitrate. (A *busy* FU alone
//               never blocks skipping: the operation occupying it has
//               its completion on the wheel, and an instruction waiting
//               for the unit sits in a ready queue.)
//   dispatch  — the fetch queue is empty or its head fails the same
//               resource checks dispatch_stage would apply.
//   fetch     — stalled (wake at fetch_stall_until_), the queue is full,
//               or the trace is exhausted.
// The cycle loop tests the incremental wake_ledger_ word instead of
// calling this; CoreConfig::check_quiescence asserts the two agree after
// every stepped cycle.
template <lsq::LoadStoreQueue LsqT, typename ObserverT>
bool Core<LsqT, ObserverT>::quiescent() const {
  if (commit_head_actionable()) return false;
  if (any_ready_queue()) return false;
  if (lsq_.has_pending_work()) return false;
  if (!fetch_queue_.empty() && !dispatch_blocked()) return false;
  const bool fetch_able = fetch_queue_.size() < cfg_.fetch_queue &&
                          fetch_seq_ < trace_.size();
  if (fetch_able && cycle_ >= fetch_stall_until_) return false;
  return true;
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
bool Core<LsqT, ObserverT>::dispatch_blocked() const {
  // Decode facts ride in the fetch ring (see Fetched): the head-of-queue
  // resource checks never touch the trace record.
  const Fetched& fr = fetch_queue_.front();
  if (tail_ - head_ >= cfg_.rob_size) return true;
  if (fr.fp ? iq_fp_used_ >= cfg_.iq_fp : iq_int_used_ >= cfg_.iq_int) {
    return true;
  }
  if (fr.dst != kNoReg && (is_fp_reg(fr.dst) ? fp_regs_used_ >= cfg_.fp_regs
                                             : int_regs_used_ >= cfg_.int_regs)) {
    return true;
  }
  return fr.mem && !lsq_.can_dispatch(fr.load);
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
Cycle Core<LsqT, ObserverT>::wake_horizon() const {
  // Wake sources. The fetch stall participates only when fetch could act
  // once it lifts; the hierarchy hook is constant kNeverCycle for the
  // synchronous model but keeps async models honest (see hierarchy.h).
  Cycle wake = completions_.next_event_cycle(cycle_);
  wake = std::min(wake, mem_.pending_completion_cycle());
  if (fetch_queue_.size() < cfg_.fetch_queue && fetch_seq_ < trace_.size()) {
    wake = std::min(wake, fetch_stall_until_);
  }
  // Clamp to the cycle the watchdog would fire at: if no wake source
  // exists before it, the always-step loop would have spun there and
  // thrown — jump to the same cycle and let run() throw identically.
  return std::min(wake, last_commit_cycle_ + cfg_.commit_timeout + 1);
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::try_fast_forward() {
  if (wake_ledger_ != 0) return;
  const Cycle wake = wake_horizon();
  if (wake <= cycle_) return;

  const std::uint64_t span = wake - cycle_;
  // The skipped cycles are observable only through the per-cycle
  // occupancy hook; nothing ran, so the sample is constant over the span
  // and the run-length observer folds it in one call, bit-identically.
  if (observer_ != nullptr) {
    observer_->on_cycles(cycle_, span, sampled_occupancy());
  }
  res_.quiescent_cycles_skipped += span;
  ++res_.fast_forwards;
  cycle_ = wake;
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
void Core<LsqT, ObserverT>::begin(std::uint64_t max_insts) {
  target_ = std::min<std::uint64_t>(max_insts, trace_.size());
  last_commit_cycle_ = 0;
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
bool Core<LsqT, ObserverT>::step(std::uint64_t max_cycles) {
  // One iteration here is one iteration of the legacy run() loop — the
  // body is verbatim, so stepping in blocks of any size commits the same
  // instructions at the same cycles as one uninterrupted run.
  for (std::uint64_t stepped = 0; stepped < max_cycles; ++stepped) {
    if (res_.committed >= target_) return false;
    dcache_ports_used_ = 0;
    int_alu_.new_cycle();
    fp_alu_.new_cycle();

    // Stage gates: at the top of a cycle the commit and ready bits are
    // exact (commit's clause only moves through writeback/placement
    // sites, and nothing pops a ready ring outside issue), so a clear
    // bit proves the stage a no-op and the event-driven loop skips the
    // call. The always-step escape hatch stays an ungated reference
    // walk — the differential suite comparing both modes is then a
    // tripwire for the gates themselves, on top of the quiescence
    // cross-check.
    if (cfg_.always_step || (wake_ledger_ & kWakeCommitHead) != 0) {
      commit_stage();
      if (res_.committed >= target_) return false;
    }
    if (cfg_.always_step || completions_.has_due(cycle_)) {
      writeback_stage();
    }
    memory_stage();
    if (cfg_.always_step || (wake_ledger_ & kWakeReady) != 0) {
      issue_stage();
    }
    dispatch_stage();
    fetch_stage();

    if (observer_ != nullptr) observer_->on_cycle(cycle_, sampled_occupancy());

    ++cycle_;
    // Trace exhausted. Checked before the fast-forward so a quiescent,
    // finished machine breaks instead of jumping at stale wheel events —
    // and it cannot mask a wedge: this holds within commit_width cycles
    // of the final commit, 200k cycles before the watchdog could.
    if (head_ == tail_ && fetch_queue_.empty() && fetch_seq_ >= trace_.size()) {
      return false;
    }
    // Differential cross-check (tests, SAMIE_CHECK_QUIESCENCE builds):
    // the incremental ledger and the from-scratch predicate must agree
    // after *every* stepped cycle, in both engine modes.
    if (cfg_.check_quiescence && (wake_ledger_ == 0) != quiescent()) {
      throw std::logic_error(
          "wake ledger (word=" + std::to_string(wake_ledger_) +
          ") disagrees with quiescent() at cycle " + std::to_string(cycle_));
    }
    if (!cfg_.always_step) try_fast_forward();
    // Watchdog, both engine modes: a fast-forward is clamped at this
    // horizon, so a wedged pipeline throws at the same cycle with the
    // same message whether the loop stepped or jumped there.
    if (cycle_ - last_commit_cycle_ > cfg_.commit_timeout) {
      throw std::runtime_error("commit watchdog fired: pipeline wedged at cycle " +
                               std::to_string(cycle_));
    }
    // Cooperative cancellation: one relaxed load per stepped iteration,
    // after the fast-forward so a deadline expiring mid-span still
    // aborts within commit_timeout cycles of wall-clock work.
    if (cfg_.should_abort != nullptr &&
        cfg_.should_abort->load(std::memory_order_relaxed)) [[unlikely]] {
      throw SimulationAborted("simulation aborted by cancellation token at cycle " +
                              std::to_string(cycle_));
    }
  }
  return res_.committed < target_;
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
CoreResult Core<LsqT, ObserverT>::finish() {
  res_.cycles = cycle_;
  res_.ipc = cycle_ > 0 ? static_cast<double>(res_.committed) /
                              static_cast<double>(cycle_)
                        : 0.0;
  return res_;
}

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
CoreResult Core<LsqT, ObserverT>::run(std::uint64_t max_insts) {
  begin(max_insts);
  while (step(std::numeric_limits<std::uint64_t>::max())) {
  }
  return finish();
}

}  // namespace samie::core
