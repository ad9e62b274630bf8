// DepSlab regression tests: the shared dependence-ref arena must
// preserve insertion order (the core's wake order depends on it),
// recycle chunks through the freelist (reuse after squash — steady
// state never grows), and leak nothing (the recount hooks cross-check
// the O(1) accounting). The Core integration test runs a squash- and
// forwarding-heavy trace and asserts the slab is fully reclaimed.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/branch/predictor.h"
#include "src/core/core.h"
#include "src/core/dep_slab.h"
#include "src/lsq/samie_lsq.h"
#include "src/mem/hierarchy.h"
#include "src/trace/instruction.h"

namespace samie::core {
namespace {

DepRef ref(InstSeq seq, std::uint32_t gen = 1, std::uint8_t role = 0) {
  return DepRef{seq, gen, role};
}

std::vector<InstSeq> seqs_of(const DepSlab& slab, const DepSlab::List& l) {
  std::vector<InstSeq> out;
  slab.for_each(l, [&out](const DepRef& r) { out.push_back(r.seq); });
  return out;
}

TEST(DepSlab, PreservesInsertionOrderAcrossChunkBoundaries) {
  DepSlab slab;
  DepSlab::List l;
  // 3 chunks' worth plus a partial tail.
  const std::size_t n = DepSlab::kChunkRefs * 3 + 2;
  for (std::size_t i = 0; i < n; ++i) slab.push(l, ref(i));
  const std::vector<InstSeq> got = seqs_of(slab, l);
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(slab.live_refs(), n);
  slab.free(l);
  EXPECT_EQ(slab.live_refs(), 0U);
  EXPECT_TRUE(slab.empty(l));
}

TEST(DepSlab, FreeReturnsEveryChunkAndRecountAgrees) {
  DepSlab slab(8);
  EXPECT_EQ(slab.total_chunks(), 8U);
  EXPECT_EQ(slab.free_chunks(), 8U);
  EXPECT_EQ(slab.recount_free_chunks(), 8U);

  DepSlab::List a;
  DepSlab::List b;
  for (std::size_t i = 0; i < DepSlab::kChunkRefs * 2; ++i) slab.push(a, ref(i));
  for (std::size_t i = 0; i < DepSlab::kChunkRefs + 1; ++i) slab.push(b, ref(i));
  EXPECT_EQ(slab.chunks_in_use(), 4U);
  EXPECT_EQ(slab.free_chunks(), slab.recount_free_chunks());

  slab.free(a);
  slab.free(b);
  EXPECT_EQ(slab.chunks_in_use(), 0U);
  EXPECT_EQ(slab.free_chunks(), slab.total_chunks());
  EXPECT_EQ(slab.recount_free_chunks(), slab.total_chunks());
  EXPECT_EQ(slab.live_refs(), 0U);
}

TEST(DepSlab, ReusesFreedChunksInsteadOfGrowing) {
  DepSlab slab(4);
  const std::size_t total_before = slab.total_chunks();
  // A squash-shaped workload: fill lists, throw them away, repeat. The
  // arena must not grow once working-set-many chunks exist.
  for (int round = 0; round < 1000; ++round) {
    DepSlab::List l;
    for (std::size_t i = 0; i < DepSlab::kChunkRefs * 4; ++i) {
      slab.push(l, ref(i, static_cast<std::uint32_t>(round)));
    }
    slab.free(l);
  }
  EXPECT_EQ(slab.total_chunks(), total_before)
      << "freed chunks were not recycled";
  EXPECT_EQ(slab.free_chunks(), slab.total_chunks());
  EXPECT_EQ(slab.recount_free_chunks(), slab.total_chunks());
}

TEST(DepSlab, DetachStealsTheChainAndPushDuringIterationIsSafe) {
  DepSlab slab;
  DepSlab::List l;
  for (std::size_t i = 0; i < DepSlab::kChunkRefs + 1; ++i) slab.push(l, ref(i));
  DepSlab::List taken = slab.detach(l);
  EXPECT_TRUE(slab.empty(l));

  // Re-entrant pattern: the wake loop pushes to (other) lists while the
  // detached chain is iterated; the chain must be unaffected.
  DepSlab::List other;
  std::size_t visited = 0;
  slab.for_each(taken, [&](const DepRef& r) {
    slab.push(other, ref(r.seq + 100));
    ++visited;
  });
  EXPECT_EQ(visited, DepSlab::kChunkRefs + 1);
  const std::vector<InstSeq> got = seqs_of(slab, other);
  ASSERT_EQ(got.size(), DepSlab::kChunkRefs + 1);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i + 100);

  slab.free(taken);
  slab.free(other);
  EXPECT_EQ(slab.live_refs(), 0U);
  EXPECT_EQ(slab.free_chunks(), slab.total_chunks());
}

// ------------------------------------------------------------ integration --
// A branchy, forwarding-heavy, deliberately under-provisioned SAMIE run:
// mispredict squashes and §3.3 full flushes churn the dependence lists
// hard. Afterwards every ref must have been reclaimed (live_refs == 0,
// freelist == arena) and the recount hook must agree with the counter —
// a leaked DepRef chunk anywhere in the commit/squash/flush paths fails
// here.
TEST(DepSlabIntegration, CoreReclaimsEveryRefAfterSquashHeavyRun) {
  trace::Trace t{.name = "slab-churn", .seed = 0, .ops = {}};
  Addr pc = 0x400000;
  std::uint64_t mem_base = 0x10000;
  for (int i = 0; i < 6000; ++i) {
    trace::MicroOp op;
    op.pc = pc;
    pc += 4;
    switch (i % 5) {
      case 0:  // producer chain: every op below depends on r1
        op.op = trace::OpClass::kIntAlu;
        op.dst = 1;
        op.src1 = 1;
        break;
      case 1:  // store whose address and data both depend on the chain
        op.op = trace::OpClass::kStore;
        op.addr = mem_base + (i % 64) * 8;
        op.mem_size = 8;
        op.value = static_cast<std::uint64_t>(i);
        op.src1 = 1;
        op.src2 = 1;
        break;
      case 2:  // load of the previous op's store: forwarding paths
        op.op = trace::OpClass::kLoad;
        op.addr = mem_base + ((i - 1) % 64) * 8;
        op.mem_size = 8;
        op.value = static_cast<std::uint64_t>(i - 1);  // what that store wrote
        op.dst = 2;
        op.src1 = 1;
        break;
      case 3:  // dependent consumer
        op.op = trace::OpClass::kIntAlu;
        op.dst = 3;
        op.src1 = 2;
        op.src2 = 1;
        break;
      default:  // taken branch every 5th op: constant squash pressure
        op.op = trace::OpClass::kBranch;
        op.taken = (i % 2) == 0;
        op.addr = pc + 16;
        break;
    }
    t.ops.push_back(op);
  }

  // Tiny SAMIE geometry so placement pressure adds full flushes.
  lsq::SamieConfig scfg;
  scfg.banks = 2;
  scfg.entries_per_bank = 1;
  scfg.slots_per_entry = 2;
  scfg.shared_entries = 1;
  scfg.addr_buffer_slots = 4;
  lsq::SamieLsq q(scfg, nullptr);
  mem::MemoryHierarchy memory{mem::HierarchyConfig{}};
  branch::HybridPredictor pred;
  branch::Btb btb;
  Core c(CoreConfig{}, t, q, memory, pred, btb, nullptr);
  c.begin(t.size());
  while (c.step(std::numeric_limits<std::uint64_t>::max())) {
  }
  const CoreResult r = c.finish();

  EXPECT_EQ(r.committed, t.size());
  EXPECT_GT(r.mispredict_squashes, 0U) << "squash path not exercised";
  EXPECT_EQ(r.value_mismatches, 0U);

  const DepSlab& slab = c.dep_slab();
  EXPECT_EQ(slab.live_refs(), 0U) << "DepRefs leaked";
  EXPECT_EQ(slab.chunks_in_use(), 0U) << "chunks stranded outside freelist";
  EXPECT_EQ(slab.free_chunks(), slab.total_chunks());
  EXPECT_EQ(slab.recount_free_chunks(), slab.free_chunks())
      << "freelist walk disagrees with the O(1) counter";
}

}  // namespace
}  // namespace samie::core
