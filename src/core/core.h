// The out-of-order superscalar core (paper Table 2): 8-wide fetch/
// dispatch/issue/commit, 256-entry ROB with the readyBit/whereLSQ
// extension, separate INT/FP issue queues, the Table 2 functional units,
// and pluggable load/store queues.
//
// Trace-driven: fetch follows the (correct-path) trace; branch mispredicts
// squash younger in-flight instructions and restart fetch after a redirect
// penalty, which models the recovery cost without wrong-path execution
// (DESIGN.md §4.2).
//
// `Core` is a template over the concrete LSQ type (any class modelling
// the lsq::LoadStoreQueue concept) *and* the per-cycle observer type:
// Core<lsq::SamieLsq, StatsCollector> calls the queue and inlines the
// observer's one hook (on_cycles, fed the queue's occupancy() after
// every stepped cycle and once per fast-forward), so the cycle loop
// makes no indirect call. Both are bound at compile time; the one dynamic
// dispatch on the simulation path is sim::Lane::step, once per turn. A
// nullptr observer deduces NullObserver.
//
// In-flight state is laid out for the access pattern, not the object
// model (the same argument SAMIE-LSQ makes for the queue itself): the
// former ~100-byte per-slot `InFlight` record is split into parallel
// arrays indexed by ROB slot — a packed `SlotStatus` word (the pipeline
// booleans and wait counters), a `(seq, gen)` token array, an op-pointer
// array, the dependence-list handles, and a cold array (`load_value`,
// `prev_rename`) the stage scans never touch. Dependent/waiter refs live
// in a shared `DepSlab` arena instead of per-slot vectors. See
// docs/BENCH_hotpath.md "Engine structures".
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/branch/predictor.h"
#include "src/common/calendar_wheel.h"
#include "src/common/ring_deque.h"
#include "src/common/seq_set.h"
#include "src/common/sparse_memory.h"
#include "src/core/dep_slab.h"
#include "src/core/fu_pool.h"
#include "src/lsq/lsq_interface.h"
#include "src/mem/hierarchy.h"
#include "src/trace/instruction.h"
#include "src/trace/trace_window.h"

namespace samie::core {

struct CoreConfig {
  std::uint32_t fetch_width = 8;
  std::uint32_t dispatch_width = 8;
  std::uint32_t issue_width_int = 8;
  std::uint32_t issue_width_fp = 8;
  std::uint32_t commit_width = 8;
  std::uint32_t rob_size = 256;
  std::uint32_t iq_int = 128;
  std::uint32_t iq_fp = 128;
  std::uint32_t fetch_queue = 64;
  std::uint32_t int_regs = 160;
  std::uint32_t fp_regs = 160;
  std::uint32_t dcache_ports = 4;
  Cycle redirect_penalty = 3;  ///< resolve-to-refetch bubble

  // Functional units (Table 2).
  std::uint32_t n_int_alu = 6;
  std::uint32_t n_int_muldiv = 3;
  std::uint32_t n_fp_alu = 4;
  std::uint32_t n_fp_muldiv = 2;
  Cycle lat_int_alu = 1;
  Cycle lat_int_mul = 3;
  Cycle lat_int_div = 20;  // non-pipelined
  Cycle lat_fp_alu = 2;
  Cycle lat_fp_mul = 4;
  Cycle lat_fp_div = 12;  // non-pipelined

  /// Ablation (paper §3.6 future work): way-known L1D accesses complete
  /// one cycle earlier.
  bool exploit_known_line_latency = false;

  /// Watchdog: abort if no instruction commits for this many cycles.
  Cycle commit_timeout = 200000;

  /// Escape hatch (`samie_sim --no-skip`): step every cycle, even those
  /// `quiescent()` proves a no-op. The event-driven fast-forward is
  /// bit-identical to this by construction; the differential suite runs
  /// both and asserts it.
  bool always_step = false;
};

/// An observer that records nothing; a nullptr observer deduces it.
/// Observer types provide one hook, on_cycles(count, occupancy): the core
/// calls it with 1 after each stepped cycle and with the span of a
/// fast-forward, whose cycles share one sample (nothing ran, so nothing
/// could change it). sim::StatsCollector is the one that records.
struct NullObserver {
  void on_cycles(std::uint64_t /*count*/,
                 const lsq::OccupancySample& /*occ*/) {}
};

/// Aggregate outcome of a simulation run.
struct CoreResult {
  Cycle cycles = 0;
  std::uint64_t committed = 0;
  double ipc = 0.0;
  std::uint64_t mispredict_squashes = 0;
  std::uint64_t deadlock_flushes = 0;
  std::uint64_t loads_executed = 0;
  std::uint64_t stores_committed = 0;
  std::uint64_t forwarded_loads = 0;
  std::uint64_t partial_forward_waits = 0;
  std::uint64_t agen_gated = 0;
  /// Loads whose observed value differed from the trace oracle — any
  /// nonzero value is a memory-ordering bug in the LSQ under test.
  std::uint64_t value_mismatches = 0;
  /// Each L1D and DTLB access, counted once (access_dcache); the lane
  /// folds the Figure 9 and 10 energies from these.
  std::uint64_t dcache_way_known = 0;
  std::uint64_t dcache_full = 0;
  std::uint64_t dtlb_accesses = 0;
  std::uint64_t dtlb_cached = 0;
  /// Engine metrics, not simulation statistics: cycles the event-driven
  /// loop fast-forwarded over (0 under `always_step`) and the number of
  /// fast-forward jumps. Every *simulation* statistic above is
  /// bit-identical whether these are zero or not.
  std::uint64_t quiescent_cycles_skipped = 0;
  std::uint64_t fast_forwards = 0;
};

/// Packed per-slot pipeline status — the hot word of the ROB's SoA
/// layout. One 32-bit load answers every per-stage question about a
/// slot; the former record spread the same eight booleans and two wait
/// counters over ten bytes of a ~100-byte struct. Bit assignments
/// (documented in docs/BENCH_hotpath.md):
///   bit 0  in_iq          bit 4  data_ready (stores)
///   bit 1  agen_issued    bit 5  executing
///   bit 2  agen_done      bit 6  completed
///   bit 3  placed         bit 7  mispredicted
///   bits 8..15  wait_agen (outstanding sources / address sources)
///   bits 16..23 wait_data (stores: outstanding data operand)
///   bit 24 is_mem, bit 25 is_fp (derived once at dispatch)
///   bits 28..31 the trace::OpClass
/// Caching the op class here means the per-cycle scans (issue FU
/// selection, the §3.3 head predicate, writeback routing, wake-target
/// queue choice) never chase the op pointer — the status word already
/// answers them.
class SlotStatus {
 public:
  enum : std::uint32_t {
    kInIq = 1U << 0,
    kAgenIssued = 1U << 1,
    kAgenDone = 1U << 2,
    kPlaced = 1U << 3,
    kDataReady = 1U << 4,
    kExecuting = 1U << 5,
    kCompleted = 1U << 6,
    kMispredicted = 1U << 7,
    kIsMem = 1U << 24,
    kIsFp = 1U << 25,
  };
  static constexpr std::uint32_t kWaitAgenShift = 8;
  static constexpr std::uint32_t kWaitDataShift = 16;
  static constexpr std::uint32_t kWaitMask = 0xFFU;
  static constexpr std::uint32_t kOpShift = 28;

  /// Fresh dispatch state: everything clear except the given flags.
  void reset(std::uint32_t flags) noexcept { w_ = flags; }

  [[nodiscard]] bool in_iq() const noexcept { return (w_ & kInIq) != 0; }
  [[nodiscard]] bool agen_issued() const noexcept {
    return (w_ & kAgenIssued) != 0;
  }
  [[nodiscard]] bool agen_done() const noexcept {
    return (w_ & kAgenDone) != 0;
  }
  [[nodiscard]] bool placed() const noexcept { return (w_ & kPlaced) != 0; }
  [[nodiscard]] bool data_ready() const noexcept {
    return (w_ & kDataReady) != 0;
  }
  [[nodiscard]] bool executing() const noexcept {
    return (w_ & kExecuting) != 0;
  }
  [[nodiscard]] bool completed() const noexcept {
    return (w_ & kCompleted) != 0;
  }
  [[nodiscard]] bool mispredicted() const noexcept {
    return (w_ & kMispredicted) != 0;
  }
  [[nodiscard]] bool is_mem() const noexcept { return (w_ & kIsMem) != 0; }
  [[nodiscard]] bool is_fp() const noexcept { return (w_ & kIsFp) != 0; }
  [[nodiscard]] trace::OpClass op_class() const noexcept {
    return static_cast<trace::OpClass>(w_ >> kOpShift);
  }
  void set(std::uint32_t flag) noexcept { w_ |= flag; }
  void clear(std::uint32_t flag) noexcept { w_ &= ~flag; }

  [[nodiscard]] std::uint32_t wait_agen() const noexcept {
    return (w_ >> kWaitAgenShift) & kWaitMask;
  }
  [[nodiscard]] std::uint32_t wait_data() const noexcept {
    return (w_ >> kWaitDataShift) & kWaitMask;
  }
  void inc_wait_agen() noexcept { w_ += 1U << kWaitAgenShift; }
  void inc_wait_data() noexcept { w_ += 1U << kWaitDataShift; }
  /// Decrements and returns true when the counter reached zero.
  bool dec_wait_agen() noexcept {
    w_ -= 1U << kWaitAgenShift;
    return wait_agen() == 0;
  }
  bool dec_wait_data() noexcept {
    w_ -= 1U << kWaitDataShift;
    return wait_data() == 0;
  }

 private:
  std::uint32_t w_ = 0;
};

template <lsq::LoadStoreQueue LsqT, typename ObserverT>
class Core final {
 public:
  /// The core reads its records through `trace`, whose backing storage
  /// (an owned Trace, a TraceSource) must outlive it. A source window
  /// must keep at least rob_size + fetch_queue records behind the fetch
  /// point (std::invalid_argument otherwise). Throws
  /// std::invalid_argument naming the field when a width, a capacity, a
  /// register count, the D-cache ports or a functional-unit count of
  /// `cfg` is zero.
  Core(const CoreConfig& cfg, trace::TraceWindow trace, LsqT& lsq,
       mem::MemoryHierarchy& memory, branch::HybridPredictor& predictor,
       branch::Btb& btb, ObserverT* observer);

  // -- resumable stepping (sim::Lane) ----------------------------------------
  // A run is begin(max_insts), then step() until it returns false, then
  // finish(). Stepping in turns of any size commits the same
  // instructions at the same cycles as one uninterrupted turn.
  /// Arms a run targeting `max_insts` committed instructions.
  void begin(std::uint64_t max_insts);
  /// Advances up to `max_cycles` stepped cycles. Returns false once the
  /// run is over (target reached or trace drained). The commit watchdog
  /// (std::runtime_error) and a presentBit protocol violation
  /// (std::logic_error) propagate from here. The core
  /// reads no clock: a caller with a wall-clock deadline checks it
  /// between calls (the sweep's attempt body does, every few thousand
  /// cycles).
  bool step(std::uint64_t max_cycles);
  /// Seals the run and returns the result. Call once, after step()
  /// returned false.
  CoreResult finish();

  // -- observability probes --------------------------------------------------
  /// The shared dependence-ref arena (leak/reuse regression hooks).
  [[nodiscard]] const DepSlab& dep_slab() const noexcept { return dep_slab_; }

 private:
  /// True iff no stage can change architectural state at the current
  /// cycle (see core_impl.h for the stage-by-stage proof obligations):
  /// the fast-forward's condition. All O(1).
  [[nodiscard]] bool quiescent() const;

  enum class SrcRole : std::uint8_t { kAgen = 0, kData = 1 };

  /// A (seq, ROB-slot incarnation) token. Each ROB slot holds its own in
  /// the hot SoA token array: `seq` is set to the occupant at dispatch
  /// and to kNoInst when the slot is released (commit, squash, flush),
  /// and `gen` counts the slot's incarnations. Everything that *refers*
  /// to an in-flight instruction across cycles — completion events,
  /// dependent lists, waiter lists, ready-queue entries — carries a copy;
  /// a consumer whose copy no longer matches the slot's token is stale
  /// (squash, flush or slot reuse after refetch of the same trace index)
  /// and drops it in O(1). This is what makes squash recovery
  /// O(squashed): no survivor scrubbing, no ready-queue filtering.
  struct SeqRef {
    InstSeq seq = kNoInst;
    std::uint32_t gen = 0;
  };

  /// Per-slot dependence-list handles into the shared DepSlab arena:
  /// instructions waiting on this slot's result, and (stores only) loads
  /// waiting to forward from / retire behind it. Stale tokens are
  /// dropped at wake time.
  struct SlotLists {
    DepSlab::List dependents;      ///< waiting on this result (DepRef.role)
    DepSlab::List fwd_waiters;     ///< ForwardWait: need the datum
    DepSlab::List commit_waiters;  ///< WaitCommit: need retirement
  };

  /// Cold per-slot state: touched once per instruction (value check at
  /// completion, rename undo on squash), never by the per-cycle scans —
  /// keeping it out of the hot arrays is the point of the SoA split.
  struct SlotCold {
    std::uint64_t load_value = 0;  ///< value the load observed (checked
                                   ///< against the trace oracle)
    /// Destination register, cached at dispatch: commit and squash read
    /// it next to prev_rename, so neither recovery path touches the op.
    RegId dst = kNoReg;
    /// Rename checkpoint: the producer this instruction's dst displaced
    /// at dispatch (kNoInst included). Squash/flush restore the rename
    /// table by replaying these in reverse over the squashed range only —
    /// O(squashed), no survivor walk. A restored value may name an
    /// already-committed producer; that is benign because every rename
    /// consumer filters through live().
    InstSeq prev_rename = kNoInst;
  };

  /// A fetched instruction plus the decode facts dispatch's resource
  /// checks need. dispatch_blocked() runs for every dispatch attempt
  /// *and* for quiescent()'s dispatch clause, so it reads this hot
  /// 16-byte ring entry instead of the 32-byte trace record.
  struct Fetched {
    InstSeq seq = kNoInst;
    RegId dst = kNoReg;
    bool fp = false;
    bool mem = false;
    bool load = false;
    bool mispredicted = false;
  };

  // -- stages (called commit-first each cycle) -------------------------------
  void commit_stage();
  void writeback_stage();
  void memory_stage();
  void issue_stage();
  void dispatch_stage();
  void fetch_stage();

  // -- helpers ---------------------------------------------------------------
  /// ROB slot index. A power-of-two ROB (the common case, paper default
  /// 256) masks; only odd-sized configurations pay the division.
  [[nodiscard]] std::size_t rob_index(InstSeq seq) const {
    return rob_mask_ != 0 ? static_cast<std::size_t>(seq & rob_mask_)
                          : static_cast<std::size_t>(seq % cfg_.rob_size);
  }
  [[nodiscard]] SlotStatus& status_of(InstSeq seq) {
    return rob_status_[rob_index(seq)];
  }
  [[nodiscard]] const SlotStatus& status_of(InstSeq seq) const {
    return rob_status_[rob_index(seq)];
  }
  [[nodiscard]] const trace::MicroOp& op_of(InstSeq seq) const {
    return *rob_op_[rob_index(seq)];
  }
  [[nodiscard]] bool live(InstSeq seq) const {
    return seq >= head_ && seq < tail_ && rob_token_[rob_index(seq)].seq == seq;
  }
  void schedule_completion(InstSeq seq, Cycle at);
  void complete(InstSeq seq);
  void wake_dependents(std::size_t idx);
  void on_agen_complete(InstSeq seq);
  void on_store_placed(InstSeq seq);
  void try_schedule_load(InstSeq seq);
  void execute_load_access(InstSeq seq);
  /// The one L1D access, of a load at issue or a store at commit: takes
  /// a port, follows the queue's hints, counts the access once, keeps
  /// the presentBits, and returns the latency. Throws std::logic_error
  /// naming the kind when a way-known line is not resident.
  Cycle access_dcache(InstSeq seq, Addr addr, bool is_store);
  [[nodiscard]] bool load_ordering_clear(InstSeq seq) const;
  /// Ends the incarnation in ROB slot `idx` (commit, squash, flush): its
  /// token dies, so every cross-cycle ref to it goes stale, and its
  /// three dependence lists go back to the slab, so the slab never
  /// carries refs for dead slots.
  void release_slot(std::size_t idx);
  void squash_after(InstSeq last_kept);
  void full_flush();
  [[nodiscard]] std::uint64_t forwarded_value(const trace::MicroOp& load,
                                              const trace::MicroOp& store) const;

  // -- event-driven engine ---------------------------------------------------
  /// True when `ref` still names the incarnation it was created for.
  [[nodiscard]] bool ref_live(InstSeq seq, std::uint32_t gen) const {
    const SeqRef& t = rob_token_[rob_index(seq)];
    return seq >= head_ && seq < tail_ && t.seq == seq && t.gen == gen;
  }
  [[nodiscard]] SeqRef ref_of(InstSeq seq) const {
    return SeqRef{seq, rob_token_[rob_index(seq)].gen};
  }
  /// §3.3 deadlock-avoidance predicate on the ROB head: the oldest
  /// instruction can never be placed without a flush. One definition
  /// shared by commit_stage (which flushes on it) and quiescent(), so
  /// they can never drift apart.
  [[nodiscard]] bool deadlock_flush_pending(std::size_t idx) const {
    const SlotStatus s = rob_status_[idx];
    return s.is_mem() && !s.placed() &&
           (s.agen_done() || (!s.agen_issued() && s.wait_agen() == 0 &&
                              lsq_.placement_headroom() == 0));
  }
  /// The commit clause of the quiescence predicate: the head exists and
  /// commit_stage would act on it (retire or flush).
  [[nodiscard]] bool commit_head_actionable() const {
    if (head_ == tail_) return false;
    const std::size_t idx = rob_index(head_);
    return rob_status_[idx].completed() || deadlock_flush_pending(idx);
  }
  /// The dispatch stage's head-of-queue resource checks, O(1). The stage
  /// itself breaks on this same predicate, so quiescent() and the stage
  /// agree by construction.
  [[nodiscard]] bool dispatch_blocked() const;
  [[nodiscard]] bool any_ready_queue() const noexcept {
    return !ready_int_.empty() || !ready_fp_.empty() || !ready_mem_.empty();
  }
  /// When quiescent, jumps cycle_ to the next wake source (wheel event,
  /// fetch re-enable, hierarchy completion, watchdog), replaying the
  /// skipped span through the observer in one batched call.
  void try_fast_forward();
  /// The fast-forward jump target: earliest cycle any wake source fires.
  [[nodiscard]] Cycle wake_horizon() const;

  CoreConfig cfg_;
  /// Every record the core reads: fetch, dispatch and the in-flight
  /// records behind rob_op_ and store forwarding all lie in
  /// [head_, fetch_seq_], at most rob_size + fetch_queue records.
  trace::TraceWindow trace_;
  LsqT& lsq_;
  mem::MemoryHierarchy& mem_;
  branch::HybridPredictor& predictor_;
  branch::Btb& btb_;
  ObserverT* observer_;
  /// Committed architectural memory: stores write it at commit, loads
  /// that reach the cache read it. Checked against the trace's oracle
  /// load values (`value_mismatches`), it closes the loop that proves the
  /// LSQ's disambiguation and forwarding return program-order-correct
  /// data for every load.
  SparseMemory memory_state_;

  // Pipeline state.
  Cycle cycle_ = 0;
  InstSeq head_ = 0;          ///< oldest in-flight (== next to commit)
  InstSeq tail_ = 0;          ///< next seq to dispatch
  InstSeq fetch_seq_ = 0;     ///< next trace index to fetch
  Cycle fetch_stall_until_ = 0;
  Addr last_fetch_line_ = ~0ULL;
  std::uint64_t rob_mask_ = 0;  ///< rob_size - 1 when rob_size is pow2

  // ROB state as parallel arrays indexed by rob_index (hot → cold); see
  // the class comment. The per-stage scans read only the arrays they
  // need: commit/issue checks touch 4-byte status words, token
  // validation touches the 16-byte token array, and the cold array is
  // only read at completion and squash.
  std::vector<SlotStatus> rob_status_;
  std::vector<SeqRef> rob_token_;
  std::vector<const trace::MicroOp*> rob_op_;
  std::vector<SlotLists> rob_lists_;
  std::vector<SlotCold> rob_cold_;
  DepSlab dep_slab_;

  RingDeque<Fetched> fetch_queue_;
  std::uint32_t iq_int_used_ = 0;
  std::uint32_t iq_fp_used_ = 0;
  std::uint32_t int_regs_used_ = 0;
  std::uint32_t fp_regs_used_ = 0;
  std::vector<InstSeq> rename_;  ///< arch reg -> youngest in-flight producer

  // Scheduling queues. Entries carry (seq, gen) tokens validated at pop
  // time, so squashes do not filter them at all (stale tokens — including
  // a re-dispatched *same* seq after refetch — die on pop). Rings + flat
  // sorted sets: reserved once, allocation-free in steady state. The
  // sorted sets are exact (their min() gates load ordering) and truncate
  // in O(log n) on squash.
  RingDeque<SeqRef> ready_int_;
  RingDeque<SeqRef> ready_fp_;
  RingDeque<SeqRef> ready_mem_;  ///< loads cleared to access the cache
  SortedSeqSet unplaced_stores_;
  SortedSeqSet ordering_waiting_loads_;

  // Completion events: O(1) calendar wheel indexed by cycle & (span-1),
  // span sized above the worst-case completion latency, so no completion
  // is ever scheduled beyond it (the wheel would throw). Each event is
  // the instruction's SeqRef at schedule time; same-cycle events pop in
  // schedule order. Squashed/flushed events are not removed; they die by
  // (seq, gen) token mismatch at pop time.
  CalendarWheel<SeqRef> completions_;

  // Reused per-cycle scratch — cleared, never reallocated in steady state.
  std::vector<InstSeq> drain_scratch_;     ///< memory_stage: drained seqs
  std::vector<InstSeq> eligible_scratch_;  ///< on_store_placed: readyBit sweep
  std::vector<SeqRef> issue_batch_;  ///< issue_stage: entries skipped this
                                     ///< cycle, re-queued in order

  // Functional units.
  PipelinedPool int_alu_;
  PipelinedPool fp_alu_;
  OccupyingPool int_muldiv_;
  OccupyingPool fp_muldiv_;
  std::uint32_t dcache_ports_used_ = 0;
  /// Address computations issued but not yet resolved into a placement —
  /// each reserves one unit of the LSQ's placement headroom.
  std::uint32_t agens_outstanding_ = 0;

  // Results.
  CoreResult res_;
  Cycle last_commit_cycle_ = 0;
  /// Commit target of the armed run (see begin()).
  std::uint64_t target_ = 0;
};

/// A literal nullptr observer cannot deduce ObserverT; it means "no
/// observer".
template <lsq::LoadStoreQueue LsqT>
Core(const CoreConfig&, trace::TraceWindow, LsqT&, mem::MemoryHierarchy&,
     branch::HybridPredictor&, branch::Btb&, std::nullptr_t)
    -> Core<LsqT, NullObserver>;

}  // namespace samie::core

#include "src/core/core_impl.h"  // template member definitions
