// Differential validation of the event-driven cycle engine: the
// quiescent-cycle fast-forward must be *bit-identical* to the always-step
// loop (`CoreConfig::always_step`, samie_sim --no-skip) on every
// simulation statistic — cycles, IPC, every counter, every energy and
// area double — across all three LSQ organizations and under squash /
// full-flush / drain pressure.
//
// The engine skips a cycle only when Core::quiescent() proves every stage
// a no-op, so any divergence here means the predicate lied (a stage could
// have acted) or a wake source was missed (the jump overshot an event).
// The pressure configurations deliberately shrink queue geometries so
// mispredict squashes, deadlock-avoidance full flushes and AddrBuffer /
// retry-FIFO drains all fire; each scenario asserts the pressure it is
// named for actually occurred, so a regression cannot silently pass by
// never exercising the path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/sim/sim_config.h"
#include "src/sim/simulator.h"

namespace samie::sim {
namespace {

/// Runs `cfg` twice — event-driven and always-step — and asserts every
/// simulation statistic matches exactly (doubles compared bit-for-bit).
/// Returns the event-driven result for scenario-specific assertions.
SimResult expect_engines_identical(SimConfig cfg, const std::string& program,
                                   std::uint64_t insts) {
  cfg.instructions = insts;
  cfg.core.always_step = false;
  const SimResult fast = run_program(cfg, program);
  cfg.core.always_step = true;
  const SimResult step = run_program(cfg, program);

  const std::string what =
      std::string(lsq_choice_name(cfg.lsq)) + "/" + program;
  EXPECT_EQ(step.core.quiescent_cycles_skipped, 0U) << what;
  EXPECT_EQ(step.core.fast_forwards, 0U) << what;

  // Timing.
  EXPECT_EQ(fast.core.cycles, step.core.cycles) << what;
  EXPECT_EQ(fast.core.committed, step.core.committed) << what;
  EXPECT_EQ(fast.core.ipc, step.core.ipc) << what;
  // Recovery and LSQ counters.
  EXPECT_EQ(fast.core.mispredict_squashes, step.core.mispredict_squashes) << what;
  EXPECT_EQ(fast.core.deadlock_flushes, step.core.deadlock_flushes) << what;
  EXPECT_EQ(fast.core.loads_executed, step.core.loads_executed) << what;
  EXPECT_EQ(fast.core.stores_committed, step.core.stores_committed) << what;
  EXPECT_EQ(fast.core.forwarded_loads, step.core.forwarded_loads) << what;
  EXPECT_EQ(fast.core.partial_forward_waits, step.core.partial_forward_waits)
      << what;
  EXPECT_EQ(fast.core.agen_gated, step.core.agen_gated) << what;
  EXPECT_EQ(fast.core.value_mismatches, step.core.value_mismatches) << what;
  EXPECT_EQ(fast.core.dcache_way_known, step.core.dcache_way_known) << what;
  EXPECT_EQ(fast.core.dcache_full, step.core.dcache_full) << what;
  EXPECT_EQ(fast.core.dtlb_accesses, step.core.dtlb_accesses) << what;
  EXPECT_EQ(fast.core.dtlb_cached, step.core.dtlb_cached) << what;
  EXPECT_EQ(fast.core.value_mismatches, 0U) << what << ": ordering bug";
  // Energies (exact double equality: same FP operation sequence).
  EXPECT_EQ(fast.lsq_energy_nj, step.lsq_energy_nj) << what;
  EXPECT_EQ(fast.lsq_distrib_nj, step.lsq_distrib_nj) << what;
  EXPECT_EQ(fast.lsq_shared_nj, step.lsq_shared_nj) << what;
  EXPECT_EQ(fast.lsq_addrbuf_nj, step.lsq_addrbuf_nj) << what;
  EXPECT_EQ(fast.lsq_bus_nj, step.lsq_bus_nj) << what;
  EXPECT_EQ(fast.dcache_energy_nj, step.dcache_energy_nj) << what;
  EXPECT_EQ(fast.dtlb_energy_nj, step.dtlb_energy_nj) << what;
  // Per-cycle occupancy integrals — the part the batched observer replay
  // must keep bit-identical over skipped spans.
  EXPECT_EQ(fast.area_total, step.area_total) << what;
  EXPECT_EQ(fast.area_distrib, step.area_distrib) << what;
  EXPECT_EQ(fast.area_shared, step.area_shared) << what;
  EXPECT_EQ(fast.area_addrbuf, step.area_addrbuf) << what;
  EXPECT_EQ(fast.shared_occupancy_mean, step.shared_occupancy_mean) << what;
  EXPECT_EQ(fast.shared_occupancy_max, step.shared_occupancy_max) << what;
  EXPECT_EQ(fast.buffer_occupancy_mean, step.buffer_occupancy_mean) << what;
  EXPECT_EQ(fast.buffer_nonempty_frac, step.buffer_nonempty_frac) << what;
  // Memory system and branch state (identical access sequences).
  EXPECT_EQ(fast.l1d_hits, step.l1d_hits) << what;
  EXPECT_EQ(fast.l1d_misses, step.l1d_misses) << what;
  EXPECT_EQ(fast.dtlb_hits, step.dtlb_hits) << what;
  EXPECT_EQ(fast.dtlb_misses, step.dtlb_misses) << what;
  EXPECT_EQ(fast.branch_mispredicts, step.branch_mispredicts) << what;
  EXPECT_EQ(fast.branch_lookups, step.branch_lookups) << what;
  return fast;
}

constexpr std::uint64_t kInsts = 30'000;

TEST(EngineDifferential, PaperConfigAllLsqKindsAllProgramsMatch) {
  // The paper configuration over a branchy, a memory-bound and a
  // forwarding-heavy program; mispredict squashes fire everywhere.
  for (const LsqChoice lsq : {LsqChoice::kConventional, LsqChoice::kArb,
                              LsqChoice::kSamie, LsqChoice::kUnbounded}) {
    for (const char* program : {"gcc", "mcf", "ammp"}) {
      const SimResult r =
          expect_engines_identical(paper_config(lsq), program, kInsts);
      EXPECT_GT(r.core.mispredict_squashes, 0U)
          << lsq_choice_name(lsq) << "/" << program
          << ": squash recovery was not exercised";
    }
  }
}

TEST(EngineDifferential, MemoryBoundProgramsActuallyFastForward) {
  // On memory-latency-dominated programs the engine must engage — a
  // conservative-but-never-true predicate would silently lose the
  // fast-forward.
  // The unbounded queue of Figure 1 is a ConventionalLsq too, so its
  // lanes must take the same statically dispatched, skipping core.
  for (const LsqChoice lsq :
       {LsqChoice::kConventional, LsqChoice::kUnbounded}) {
    const SimResult r = expect_engines_identical(paper_config(lsq), "mcf",
                                                 kInsts);
    EXPECT_GT(r.core.quiescent_cycles_skipped, r.core.cycles / 10)
        << lsq_choice_name(lsq)
        << ": fast-forward never engaged on a memory-bound program";
    EXPECT_GT(r.core.fast_forwards, 0U) << lsq_choice_name(lsq);
  }
}

TEST(EngineDifferential, SamieUnderAddrBufferPressureWithFullFlushes) {
  // Tiny SAMIE geometry: constant AddrBuffer drains and §3.3
  // deadlock-avoidance full flushes (the checkpointed-recovery path).
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  cfg.samie.banks = 4;
  cfg.samie.entries_per_bank = 1;
  cfg.samie.slots_per_entry = 2;
  cfg.samie.shared_entries = 1;
  cfg.samie.addr_buffer_slots = 4;
  for (const char* program : {"ammp", "mcf", "swim"}) {
    const SimResult r = expect_engines_identical(cfg, program, kInsts);
    EXPECT_GT(r.core.deadlock_flushes, 0U)
        << program << ": full_flush was not exercised";
    EXPECT_GT(r.buffer_nonempty_frac, 0.0)
        << program << ": AddrBuffer drain was not exercised";
  }
}

TEST(EngineDifferential, ArbUnderBankConflictAndFlushPressure) {
  SimConfig cfg = paper_config(LsqChoice::kArb);
  cfg.arb.banks = 2;
  cfg.arb.rows_per_bank = 2;
  cfg.arb.max_inflight = 12;
  for (const char* program : {"ammp", "art"}) {
    const SimResult r = expect_engines_identical(cfg, program, kInsts);
    EXPECT_GT(r.core.deadlock_flushes, 0U)
        << program << ": full_flush was not exercised";
  }
}

TEST(EngineDifferential, ConventionalUnderCapacityPressure) {
  SimConfig cfg = paper_config(LsqChoice::kConventional);
  cfg.conventional.entries = 12;
  for (const char* program : {"gcc", "swim"}) {
    expect_engines_identical(cfg, program, kInsts);
  }
}

// Work-ledger hook contract. The engine's quiescence proof leans on it:
// the LSQs are purely call-driven (the LoadStoreQueue concept has no
// time hook — a time-triggered queue would need wiring into
// try_fast_forward's wake computation, like
// MemoryHierarchy::pending_completion_cycle), and has_pending_work
// reports exactly the deferred work a drain() would act on.
TEST(EngineWorkLedger, LsqsAreCallDrivenNotTimeTriggered) {
  lsq::ConventionalLsq conv(lsq::ConventionalLsqConfig{}, nullptr);
  lsq::ArbLsq arb(lsq::ArbConfig{});
  lsq::SamieLsq samie(lsq::SamieConfig{}, nullptr);
  EXPECT_FALSE(conv.has_pending_work());
  EXPECT_FALSE(arb.has_pending_work());
  EXPECT_FALSE(samie.has_pending_work());
  // SAMIE: any buffered op is pending work (failed retries charge
  // energy), and it stays pending until the buffer drains.
  lsq::SamieConfig tiny;
  tiny.banks = 1;
  tiny.entries_per_bank = 1;
  tiny.slots_per_entry = 1;
  tiny.shared_entries = 1;
  tiny.addr_buffer_slots = 4;
  lsq::SamieLsq pressed(tiny, nullptr);
  // Distinct lines exhaust the single bank entry + single shared entry;
  // the third op lands in the AddrBuffer.
  using lsq::MemOpDesc;
  pressed.on_address_ready(MemOpDesc{0, 0x000, 8, true, false});
  pressed.on_address_ready(MemOpDesc{1, 0x100, 8, true, false});
  pressed.on_address_ready(MemOpDesc{2, 0x200, 8, true, false});
  EXPECT_TRUE(pressed.has_pending_work());
}

// Quiescence under pressure: drives the predicate through the hard cases
// explicitly — all three LSQ kinds under shrunken geometries where
// mispredict squashes, §3.3 full flushes and AddrBuffer / retry-FIFO
// drain pressure all fire, in both engine modes, across randomized
// workload seeds.
class QuiescenceSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuiescenceSeeds, EnginesAgreeUnderPressure) {
  const std::uint64_t seed = GetParam();
  // SAMIE, tiny geometry: constant AddrBuffer pressure + full flushes.
  SimConfig samie = paper_config(LsqChoice::kSamie);
  samie.seed = seed;
  samie.samie.banks = 4;
  samie.samie.entries_per_bank = 1;
  samie.samie.slots_per_entry = 2;
  samie.samie.shared_entries = 1;
  samie.samie.addr_buffer_slots = 4;
  const SimResult sr = expect_engines_identical(samie, "mcf", 20'000);
  EXPECT_GT(sr.core.deadlock_flushes, 0U) << "full_flush not exercised";
  EXPECT_GT(sr.buffer_nonempty_frac, 0.0) << "AddrBuffer drain not exercised";

  // ARB, tiny geometry: bank-conflict retries keep the FIFO hot.
  SimConfig arb = paper_config(LsqChoice::kArb);
  arb.seed = seed;
  arb.arb.banks = 2;
  arb.arb.rows_per_bank = 2;
  arb.arb.max_inflight = 12;
  const SimResult ar = expect_engines_identical(arb, "ammp", 20'000);
  EXPECT_GT(ar.core.deadlock_flushes, 0U) << "full_flush not exercised";

  // Conventional under capacity pressure: dispatch stalls + squashes.
  SimConfig conv = paper_config(LsqChoice::kConventional);
  conv.seed = seed;
  conv.conventional.entries = 12;
  const SimResult cr = expect_engines_identical(conv, "gcc", 20'000);
  EXPECT_GT(cr.core.mispredict_squashes, 0U) << "squash not exercised";
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuiescenceSeeds,
                         ::testing::Values(3U, 911U, 424242U));

// Randomized sweep: seeds perturb the generated workloads (different
// dependence chains, branch patterns, address streams), so the two
// engines are compared across thousands of distinct squash/stall shapes.
class EngineDifferentialSeeds : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineDifferentialSeeds, RandomizedWorkloadsMatch) {
  for (const LsqChoice lsq :
       {LsqChoice::kConventional, LsqChoice::kArb, LsqChoice::kSamie}) {
    SimConfig cfg = paper_config(lsq);
    cfg.seed = GetParam();
    expect_engines_identical(cfg, "gcc", 15'000);
    expect_engines_identical(cfg, "mcf", 15'000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialSeeds,
                         ::testing::Values(7U, 1776U, 31337U));

}  // namespace
}  // namespace samie::sim
