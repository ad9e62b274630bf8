// Tests for the out-of-order core: dataflow scheduling, branch recovery,
// memory ordering through each LSQ, deadlock-avoidance flushes, port and
// width limits, determinism. Traces are built by hand for precise control;
// every scenario runs in both engine modes (see run_trace).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/branch/predictor.h"
#include "src/core/core.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/mem/hierarchy.h"
#include "src/trace/instruction.h"

namespace samie::core {
namespace {

using trace::MicroOp;
using trace::OpClass;
using trace::Trace;

/// Builder for hand-written traces (PCs auto-assigned).
class TraceBuilder {
 public:
  MicroOp& add(OpClass op) {
    MicroOp o;
    o.pc = pc_;
    pc_ += 4;
    o.op = op;
    t_.ops.push_back(o);
    return t_.ops.back();
  }
  MicroOp& alu(RegId dst = kNoReg, RegId s1 = kNoReg, RegId s2 = kNoReg) {
    MicroOp& o = add(OpClass::kIntAlu);
    o.dst = dst;
    o.src1 = s1;
    o.src2 = s2;
    return o;
  }
  MicroOp& div(RegId dst, RegId s1 = kNoReg) {
    MicroOp& o = add(OpClass::kIntDiv);
    o.dst = dst;
    o.src1 = s1;
    return o;
  }
  MicroOp& load(Addr addr, std::uint64_t expected, RegId dst = kNoReg,
                std::uint8_t size = 8, RegId addr_src = kNoReg) {
    MicroOp& o = add(OpClass::kLoad);
    o.addr = addr;
    o.mem_size = size;
    o.value = expected;
    o.dst = dst;
    o.src1 = addr_src;
    return o;
  }
  MicroOp& store(Addr addr, std::uint64_t value, std::uint8_t size = 8,
                 RegId addr_src = kNoReg, RegId data_src = kNoReg) {
    MicroOp& o = add(OpClass::kStore);
    o.addr = addr;
    o.mem_size = size;
    o.value = value;
    o.src1 = addr_src;
    o.src2 = data_src;
    return o;
  }
  MicroOp& branch(bool taken) {
    MicroOp& o = add(OpClass::kBranch);
    o.taken = taken;
    o.addr = pc_ + 16;
    return o;
  }
  Trace take() { return std::move(t_); }

 private:
  Trace t_{.name = "hand", .seed = 0, .ops = {}};
  Addr pc_ = 0x400000;
};

enum class Which { kConventional, kArb, kSamie };

/// Calls `fn` with a fresh queue of kind `which`; the core over it is
/// bound to the concrete queue type, as in production.
template <typename Fn>
CoreResult with_queue(Which which, const lsq::SamieConfig& samie_cfg, Fn&& fn) {
  switch (which) {
    case Which::kConventional: {
      lsq::ConventionalLsq q(lsq::ConventionalLsqConfig{}, nullptr);
      return fn(q);
    }
    case Which::kArb: {
      lsq::ArbLsq q(lsq::ArbConfig{.banks = 8, .rows_per_bank = 16,
                                   .max_inflight = 128, .line_bytes = 32});
      return fn(q);
    }
    case Which::kSamie: {
      lsq::SamieLsq q(samie_cfg, nullptr);
      return fn(q);
    }
  }
  throw std::logic_error("unknown Which");
}

/// Steps a core over `q` through all of `t`, as sim::Lane does.
template <lsq::LoadStoreQueue Q>
CoreResult run_core(const Trace& t, Q& q, const CoreConfig& cfg) {
  mem::MemoryHierarchy memory{mem::HierarchyConfig{}};
  branch::HybridPredictor pred;
  branch::Btb btb;
  Core c(cfg, t, q, memory, pred, btb, nullptr);
  c.begin(t.size());
  while (c.step(std::numeric_limits<std::uint64_t>::max())) {
  }
  return c.finish();
}

CoreResult run_once(const Trace& t, Which which, const CoreConfig& cfg,
                    const lsq::SamieConfig& samie_cfg) {
  return with_queue(which, samie_cfg,
                    [&](auto& q) { return run_core(t, q, cfg); });
}

/// Runs `t` in both engine modes — every cycle stepped, then the
/// event-driven loop. The two must agree on every statistic (only the
/// engine metrics quiescent_cycles_skipped and fast_forwards may
/// differ); returns the event-driven result.
CoreResult run_trace(const Trace& t, Which which = Which::kConventional,
                     CoreConfig cfg = CoreConfig{},
                     lsq::SamieConfig samie_cfg = lsq::SamieConfig{}) {
  cfg.always_step = true;
  const CoreResult stepped = run_once(t, which, cfg, samie_cfg);
  cfg.always_step = false;
  const CoreResult r = run_once(t, which, cfg, samie_cfg);
  constexpr std::pair<const char*, std::uint64_t CoreResult::*> kCounts[] = {
      {"cycles", &CoreResult::cycles},
      {"committed", &CoreResult::committed},
      {"mispredict_squashes", &CoreResult::mispredict_squashes},
      {"deadlock_flushes", &CoreResult::deadlock_flushes},
      {"loads_executed", &CoreResult::loads_executed},
      {"stores_committed", &CoreResult::stores_committed},
      {"forwarded_loads", &CoreResult::forwarded_loads},
      {"partial_forward_waits", &CoreResult::partial_forward_waits},
      {"agen_gated", &CoreResult::agen_gated},
      {"value_mismatches", &CoreResult::value_mismatches},
      {"dcache_way_known", &CoreResult::dcache_way_known},
      {"dcache_full", &CoreResult::dcache_full},
      {"dtlb_accesses", &CoreResult::dtlb_accesses},
      {"dtlb_cached", &CoreResult::dtlb_cached},
  };
  for (const auto& [name, field] : kCounts) {
    EXPECT_EQ(r.*field, stepped.*field)
        << name << " differs between engines, which=" << static_cast<int>(which);
  }
  EXPECT_EQ(r.ipc, stepped.ipc) << "which=" << static_cast<int>(which);
  EXPECT_EQ(stepped.quiescent_cycles_skipped, 0U);
  return r;
}

// ----------------------------------------------------------- basic flow ---
TEST(Core, EmptyTraceFinishesImmediately) {
  Trace t{.name = "empty", .seed = 0, .ops = {}};
  const CoreResult r = run_trace(t);
  EXPECT_EQ(r.committed, 0U);
}

TEST(Core, CommitsEveryInstructionOfAPlainBlock) {
  TraceBuilder b;
  for (int i = 0; i < 500; ++i) b.alu(static_cast<RegId>(1 + i % 30));
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  EXPECT_EQ(r.committed, 500U);
  EXPECT_EQ(r.value_mismatches, 0U);
  // The cold-start I-line fill is jumped over, not stepped through.
  EXPECT_GT(r.quiescent_cycles_skipped, 0U);
}

TEST(Core, SerialChainIsLatencyBound) {
  TraceBuilder b;
  for (int i = 0; i < 400; ++i) b.alu(/*dst=*/1, /*s1=*/1);
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  // One-cycle ALU chain: at least one cycle per instruction, plus the
  // cold-start cost (first I-line from memory + ITLB walk, ~145 cycles).
  EXPECT_GE(r.cycles, 400U);
  EXPECT_LE(r.cycles, 600U);
}

TEST(Core, IndependentOpsReachAluThroughput) {
  TraceBuilder b;
  for (int i = 0; i < 4800; ++i) b.alu(static_cast<RegId>(1 + i % 30));
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  // 6 INT ALUs: IPC must approach 6 once the cold start is amortized.
  EXPECT_GT(r.ipc, 5.0);
}

TEST(Core, NonPipelinedDividerSerializes) {
  TraceBuilder b;
  for (int i = 0; i < 30; ++i) b.div(static_cast<RegId>(1 + i % 8));
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  // 3 dividers, 20-cycle non-pipelined ops, 30 independent divides:
  // at least ceil(30/3)*20 cycles.
  EXPECT_GE(r.cycles, 200U);
}

TEST(Core, DeterministicAcrossRuns) {
  TraceBuilder b;
  for (int i = 0; i < 300; ++i) {
    b.alu(static_cast<RegId>(1 + i % 16), static_cast<RegId>(1 + (i + 5) % 16));
    if (i % 7 == 0) b.load(0x10000 + static_cast<Addr>(i) * 8, 0);
  }
  const Trace t = b.take();
  const CoreResult a = run_trace(t);
  const CoreResult bres = run_trace(t);
  EXPECT_EQ(a.cycles, bres.cycles);
  EXPECT_EQ(a.committed, bres.committed);
}

// ---------------------------------------------------------------- memory ---
TEST(Core, LoadObservesCommittedStore) {
  TraceBuilder b;
  b.store(0x20000, 0xDEADBEEFCAFE0001ULL);
  // Push the store far out of the window before the load is fetched.
  for (int i = 0; i < 400; ++i) b.alu();
  b.load(0x20000, 0xDEADBEEFCAFE0001ULL, /*dst=*/5);
  const Trace t = b.take();
  for (Which w : {Which::kConventional, Which::kArb, Which::kSamie}) {
    const CoreResult r = run_trace(t, w);
    EXPECT_EQ(r.committed, t.size());
    EXPECT_EQ(r.value_mismatches, 0U);
  }
}

TEST(Core, InFlightForwardingDeliversStoreValue) {
  TraceBuilder b;
  b.store(0x30000, 0x1122334455667788ULL);
  b.load(0x30000, 0x1122334455667788ULL, /*dst=*/6);
  const Trace t = b.take();
  for (Which w : {Which::kConventional, Which::kArb, Which::kSamie}) {
    const CoreResult r = run_trace(t, w);
    EXPECT_EQ(r.value_mismatches, 0U);
    EXPECT_EQ(r.forwarded_loads, 1U) << "load must forward, not access cache";
  }
}

TEST(Core, SubwordForwardExtractsCorrectBytes) {
  TraceBuilder b;
  b.store(0x40000, 0x8877665544332211ULL, 8);
  b.load(0x40004, 0x88776655ULL, /*dst=*/7, /*size=*/4);
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  EXPECT_EQ(r.value_mismatches, 0U);
  EXPECT_EQ(r.forwarded_loads, 1U);
}

TEST(Core, PartialOverlapWaitsAndStaysCorrect) {
  TraceBuilder b;
  b.store(0x50000, 0xAAAAAAAAAAAAAAAAULL, 8);
  b.store(0x50004, 0xBBBBBBBBULL, 4);
  // Load covers both stores: must wait for the partial one to commit.
  b.load(0x50000, 0xBBBBBBBBAAAAAAAAULL, /*dst=*/8, /*size=*/8);
  const Trace t = b.take();
  for (Which w : {Which::kConventional, Which::kArb, Which::kSamie}) {
    const CoreResult r = run_trace(t, w);
    EXPECT_EQ(r.value_mismatches, 0U) << "which=" << static_cast<int>(w);
    EXPECT_GE(r.partial_forward_waits, 1U);
  }
}

TEST(Core, StoreAddressUnknownBlocksYoungerLoad) {
  // Store's address register comes off a divider chain; the younger load
  // to an unrelated address must still wait (conservative readyBit).
  TraceBuilder blocked;
  blocked.div(/*dst=*/1);
  blocked.store(0x60000, 1, 8, /*addr_src=*/1);
  blocked.load(0x61000, 0, /*dst=*/2);
  const Trace tb = blocked.take();
  const CoreResult rb = run_trace(tb);

  TraceBuilder free_t;
  free_t.div(/*dst=*/1);
  free_t.store(0x60000, 1, 8);  // address ready immediately
  free_t.load(0x61000, 0, /*dst=*/2);
  const Trace tf = free_t.take();
  const CoreResult rf = run_trace(tf);
  EXPECT_GT(rb.cycles, rf.cycles)
      << "load behind an unknown-address store must be delayed";
}

TEST(Core, DcachePortsBoundLoadThroughput) {
  CoreConfig cfg;
  cfg.dcache_ports = 1;
  TraceBuilder b;
  // Warm the lines, push the warm-up out of the window, then finish with a
  // dense block of independent loads whose execution rate is port-bound
  // (the block is the program tail, so nothing hides it).
  for (int i = 0; i < 4; ++i) b.load(0x70000 + static_cast<Addr>(i) * 8, 0);
  for (int i = 0; i < 400; ++i) b.alu();
  for (int i = 0; i < 256; ++i) {
    b.load(0x70000 + static_cast<Addr>(i % 4) * 8, 0);
  }
  const Trace t = b.take();
  const CoreResult one_port = run_trace(t, Which::kConventional, cfg);
  const CoreResult four_ports = run_trace(t);
  // 256 tail loads at 1/cycle vs 4/cycle: a clear gap must appear.
  EXPECT_GT(one_port.cycles, four_ports.cycles + 100);
}

// --------------------------------------------------------------- branches ---
TEST(Core, MispredictsSquashAndRecover) {
  TraceBuilder b;
  // A pseudo-random direction pattern the predictor cannot fully learn.
  std::uint32_t lfsr = 0xACE1;
  for (int i = 0; i < 400; ++i) {
    b.alu(static_cast<RegId>(1 + i % 8));
    lfsr = (lfsr >> 1) ^ (-(lfsr & 1U) & 0xB400U);
    b.branch((lfsr & 1) != 0);
  }
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  EXPECT_EQ(r.committed, t.size());
  EXPECT_GT(r.mispredict_squashes, 20U);
  EXPECT_EQ(r.value_mismatches, 0U);
}

TEST(Core, PredictableBranchesBarelySquash) {
  TraceBuilder b;
  for (int i = 0; i < 400; ++i) {
    b.alu(static_cast<RegId>(1 + i % 8));
    b.branch(false);
  }
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  EXPECT_LT(r.mispredict_squashes, 8U);
}

TEST(Core, SquashKeepsMemoryCorrect) {
  TraceBuilder b;
  std::uint32_t lfsr = 0xBEEF;
  std::uint64_t v = 1;
  for (int i = 0; i < 300; ++i) {
    const Addr a = 0x80000 + static_cast<Addr>(i % 16) * 8;
    b.store(a, v);
    lfsr = (lfsr >> 1) ^ (-(lfsr & 1U) & 0xB400U);
    b.branch((lfsr & 1) != 0);
    b.load(a, v, /*dst=*/static_cast<RegId>(1 + i % 8));
    ++v;
  }
  const Trace t = b.take();
  for (Which w : {Which::kConventional, Which::kArb, Which::kSamie}) {
    const CoreResult r = run_trace(t, w);
    EXPECT_EQ(r.committed, t.size());
    EXPECT_EQ(r.value_mismatches, 0U) << "which=" << static_cast<int>(w);
  }
}

// ----------------------------------------------------- deadlock avoidance ---
TEST(Core, SamieDeadlockFlushGuaranteesProgress) {
  // A brutally small SAMIE: 2 banks x 1 entry x 1 slot, 1 shared entry,
  // 2-slot AddrBuffer. A stream of distinct lines in one bank wedges it.
  lsq::SamieConfig cfg;
  cfg.banks = 2;
  cfg.entries_per_bank = 1;
  cfg.slots_per_entry = 1;
  cfg.shared_entries = 1;
  cfg.addr_buffer_slots = 2;
  cfg.l1d_sets = 64;
  TraceBuilder b;
  Addr line = 0;
  for (int i = 0; i < 50; ++i) {
    // The old load's address hangs off a 20-cycle divide, so the younger
    // loads behind it place first and fill every slot this bank can use.
    b.div(/*dst=*/1);
    b.load(line * 64, 0, /*dst=*/2, 8, /*addr_src=*/1);
    ++line;
    for (int j = 0; j < 6; ++j) {
      b.load(line * 64, 0, static_cast<RegId>(3 + j));
      ++line;
    }
  }
  const Trace t = b.take();
  const CoreResult r = run_trace(t, Which::kSamie, CoreConfig{}, cfg);
  EXPECT_EQ(r.committed, t.size()) << "flushes must guarantee forward progress";
  EXPECT_GT(r.deadlock_flushes, 0U);
  EXPECT_EQ(r.value_mismatches, 0U);
}

TEST(Core, ConventionalNeverDeadlocks) {
  TraceBuilder b;
  for (int i = 0; i < 300; ++i) {
    b.load(static_cast<Addr>(i) * 64, 0, static_cast<RegId>(1 + i % 8));
  }
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  EXPECT_EQ(r.deadlock_flushes, 0U);
}

// ----------------------------------------------------------------- hints ---
TEST(Core, SamieSkipsTagsAndTlbOnReuse) {
  TraceBuilder b;
  // Eight loads to the same line, far from each other in dependency terms.
  for (int i = 0; i < 8; ++i) {
    b.load(0x90000 + static_cast<Addr>(i % 4) * 8, 0,
           static_cast<RegId>(1 + i));
  }
  const Trace t = b.take();
  const CoreResult r = run_trace(t, Which::kSamie);
  EXPECT_GT(r.dcache_way_known, 0U);
  EXPECT_GT(r.dtlb_cached, 0U);
  EXPECT_EQ(r.dcache_way_known + r.dcache_full, 8U);
}

TEST(Core, ConventionalAlwaysPaysFullAccess) {
  TraceBuilder b;
  for (int i = 0; i < 8; ++i) {
    b.load(0x90000 + static_cast<Addr>(i % 4) * 8, 0,
           static_cast<RegId>(1 + i));
  }
  const Trace t = b.take();
  const CoreResult r = run_trace(t);
  EXPECT_EQ(r.dcache_way_known, 0U);
  EXPECT_EQ(r.dtlb_cached, 0U);
  EXPECT_EQ(r.dcache_full, 8U);
}

TEST(Core, KnownLineLatencyAblationHelps) {
  // A dependent load chain with same-line *companions* that keep the
  // entry (and thus the cached way) alive across chain steps. Note that a
  // bare serial chain would NOT benefit: each entry dies when its only
  // slot commits, before the next chain load places — the caching only
  // pays off when several same-line instructions are in flight, which is
  // exactly the paper's premise.
  CoreConfig fast;
  fast.exploit_known_line_latency = true;
  TraceBuilder b;
  b.load(0xA0000, 0, /*dst=*/1);
  for (int i = 0; i < 150; ++i) {
    // Chain step plus three independent same-line companions (distinct
    // dests) dispatched between the chain loads.
    b.load(0xA0000 + static_cast<Addr>(i % 4) * 8, 0, /*dst=*/1, 8,
           /*addr_src=*/1);
    for (int j = 0; j < 3; ++j) {
      b.load(0xA0000 + static_cast<Addr>((i + j) % 4) * 8, 0,
             static_cast<RegId>(10 + j));
    }
  }
  const Trace t = b.take();
  const CoreResult base = run_trace(t, Which::kSamie);
  const CoreResult abl = run_trace(t, Which::kSamie, fast);
  // The mechanism must engage heavily, and the shortcut can never hurt.
  EXPECT_GT(base.dcache_way_known, base.dcache_full);
  EXPECT_LE(abl.cycles, base.cycles);
  EXPECT_GT(abl.dcache_way_known, 0U);
}

// ---------------------------------------------- buffered placements ---
// A placement the queue had to buffer must be retried once it can
// succeed, in both engine modes.

TEST(Core, SamieAddrBufferDrainsBetweenWakeEvents) {
  // The fast-forward may jump only while the queue has no pending work
  // (quiescent()'s LSQ clause). One bank entry and one SharedLSQ entry,
  // draining one buffered op a cycle: loads A and B take both entries;
  // C and D, to a third line, wait in the AddrBuffer until A commits. A
  // divide on A's value is then the ROB head, so only the AddrBuffer has
  // work: C drains in A's commit cycle and D in the next one, which a
  // jump to the divide's completion would skip. D heads a divide chain,
  // so the cycle it places in sets the run's length.
  lsq::SamieConfig cfg;
  cfg.banks = 1;
  cfg.entries_per_bank = 1;
  cfg.slots_per_entry = 2;
  cfg.shared_entries = 1;
  cfg.addr_buffer_slots = 4;
  cfg.drain_width = 1;
  TraceBuilder b;
  b.load(0x100000, 0, /*dst=*/1);  // A
  b.load(0x200000, 0, /*dst=*/2);  // B
  b.div(/*dst=*/3, /*s1=*/1);
  b.load(0x300000, 0, /*dst=*/4);  // C
  b.load(0x300008, 0, /*dst=*/5);  // D
  for (int i = 0; i < 8; ++i) b.div(/*dst=*/5, /*s1=*/5);
  const Trace t = b.take();
  const CoreResult r = run_trace(t, Which::kSamie, CoreConfig{}, cfg);
  EXPECT_EQ(r.committed, t.size());
  EXPECT_EQ(r.deadlock_flushes, 0U);
  EXPECT_EQ(r.value_mismatches, 0U);
  EXPECT_EQ(r.dcache_way_known, 1U) << "D must find C's line cached";
}

TEST(Core, ArbRetryFifoUnblocksOnCommit) {
  // 17 loads to lines of one ARB bank (16 rows): the last waits in the
  // retry FIFO until the first commits and frees its row, and drains in
  // that commit's cycle. Its value heads a divide chain, so the wait
  // shows in the run's length: the same trace with the last load in
  // another bank runs shorter.
  const auto trace_ending_with_load_at = [](Addr last) {
    TraceBuilder b;
    for (int i = 0; i < 16; ++i) {
      b.load(0xC0000 + static_cast<Addr>(i) * 256, 0,
             static_cast<RegId>(1 + i % 8));
    }
    b.load(last, 0, /*dst=*/20);
    for (int i = 0; i < 4; ++i) b.div(/*dst=*/20, /*s1=*/20);
    return b.take();
  };
  const Trace same_bank = trace_ending_with_load_at(0xC0000 + 16 * 256);
  const Trace next_bank = trace_ending_with_load_at(0xC0000 + 16 * 256 + 32);
  const CoreResult blocked = run_trace(same_bank, Which::kArb);
  const CoreResult placed = run_trace(next_bank, Which::kArb);
  EXPECT_EQ(blocked.committed, same_bank.size());
  EXPECT_EQ(blocked.value_mismatches, 0U);
  // Placed by the commit, not rescued by a §3.3 flush once it is the head.
  EXPECT_EQ(blocked.deadlock_flushes, 0U);
  EXPECT_GT(blocked.cycles, placed.cycles + 50);
}

// ------------------------------------------------- presentBit protocol ---
/// A queue that places every op at once, never forwards, and claims
/// each access's line at L1D set 0, way 0, translation included: a line
/// the cold L1D does not hold.
class ClaimsAnUnheldWay {
 public:
  bool can_dispatch(bool) const { return true; }
  void on_dispatch(InstSeq, bool) {}
  std::uint32_t placement_headroom() const { return ~0U; }
  lsq::Placement on_address_ready(const lsq::MemOpDesc&) {
    return lsq::Placement{lsq::Placement::Status::kPlaced};
  }
  void drain(std::vector<InstSeq>&) {}
  bool has_pending_work() const { return false; }
  lsq::LoadPlan plan_load(InstSeq) const { return lsq::LoadPlan{}; }
  lsq::CacheHints cache_hints(InstSeq) const {
    return lsq::CacheHints{
        .way_known = true, .set = 0, .way = 0, .translation_known = true};
  }
  bool on_cache_access_complete(InstSeq, std::uint32_t, std::uint32_t) {
    return false;
  }
  void on_load_complete(InstSeq) {}
  void on_store_data_ready(InstSeq) {}
  void on_commit(InstSeq) {}
  void squash_from(InstSeq) {}
  void on_cache_line_replaced(std::uint32_t) {}
  lsq::OccupancySample occupancy() const { return lsq::OccupancySample{}; }
};
static_assert(lsq::LoadStoreQueue<ClaimsAnUnheldWay>);

TEST(Core, WayKnownAccessToAnUnheldLineThrowsNamingItsKind) {
  for (const bool store : {false, true}) {
    TraceBuilder b;
    if (store) {
      b.store(0xB0000, 1);
    } else {
      b.load(0xB0000, 0, /*dst=*/1);
    }
    const Trace t = b.take();
    for (const bool always_step : {true, false}) {
      CoreConfig cfg;
      cfg.always_step = always_step;
      ClaimsAnUnheldWay q;
      try {
        run_core(t, q, cfg);
        ADD_FAILURE() << "no presentBit violation, store=" << store;
      } catch (const std::logic_error& e) {
        EXPECT_STREQ(e.what(), store ? "presentBit protocol violation (store)"
                                     : "presentBit protocol violation (load)");
      }
    }
  }
}

}  // namespace
}  // namespace samie::core
