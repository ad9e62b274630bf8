// Tests for src/trace: generator determinism, instruction-mix fidelity,
// oracle value consistency, the address-stream model's controllable
// properties (line sharing, bank concentration), and all 26 SPEC2000
// profiles.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/analysis.h"
#include "src/trace/instruction.h"
#include "src/trace/spec2000.h"
#include "src/trace/workload.h"

namespace samie::trace {
namespace {

[[nodiscard]] WorkloadProfile simple_profile() {
  WorkloadProfile p;
  p.name = "simple";
  p.load_frac = 0.25;
  p.store_frac = 0.12;
  p.branch_frac = 0.15;
  p.streams = {StreamComponent{1.0, 256, 32, 4, 8, 0.0}};
  return p;
}

TEST(Workload, DeterministicForSameSeed) {
  WorkloadGenerator a(simple_profile(), 99);
  WorkloadGenerator b(simple_profile(), 99);
  const Trace ta = a.generate(5000);
  const Trace tb = b.generate(5000);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].pc, tb[i].pc);
    EXPECT_EQ(ta[i].addr, tb[i].addr);
    EXPECT_EQ(ta[i].value, tb[i].value);
    EXPECT_EQ(static_cast<int>(ta[i].op), static_cast<int>(tb[i].op));
  }
}

TEST(Workload, GenerateIntoInChunksMatchesOneGenerate) {
  // Each call keeps the generator's RNG in a local and stores it back at
  // its end: records drawn over many calls of any length must equal one
  // generate() of them all.
  constexpr std::uint64_t kRecords = 10'000;
  const std::uint64_t chunks[] = {1, 2, 63, 4095, 4097};
  for (const char* program : {"gcc", "ammp", "mcf"}) {
    for (const std::uint64_t seed : {42ULL, 7ULL}) {
      SCOPED_TRACE(std::string(program) + " seed " + std::to_string(seed));
      const WorkloadProfile profile = spec2000_profile(program);
      const Trace whole = WorkloadGenerator(profile, seed).generate(kRecords);
      ASSERT_EQ(whole.size(), kRecords);
      std::vector<MicroOp> pieces(kRecords);
      WorkloadGenerator g(profile, seed);
      std::uint64_t done = 0;
      for (const std::uint64_t k : chunks) {
        g.generate_into(pieces.data() + done, k);
        done += k;
      }
      g.generate_into(pieces.data() + done, kRecords - done);  // the rest
      EXPECT_EQ(std::memcmp(pieces.data(), whole.ops.data(),
                            kRecords * sizeof(MicroOp)),
                0);
    }
  }
}

TEST(Workload, DifferentSeedsProduceDifferentStreams) {
  WorkloadGenerator a(simple_profile(), 1);
  WorkloadGenerator b(simple_profile(), 2);
  const Trace ta = a.generate(2000);
  const Trace tb = b.generate(2000);
  int diff = 0;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    diff += static_cast<int>(ta[i].op) != static_cast<int>(tb[i].op) ? 1 : 0;
  }
  EXPECT_GT(diff, 100);
}

TEST(Workload, MixMatchesProfile) {
  WorkloadGenerator g(simple_profile(), 7);
  const Trace t = g.generate(100000);
  const MixStats m = compute_mix(t);
  EXPECT_NEAR(m.load_frac, 0.25, 0.02);
  EXPECT_NEAR(m.store_frac, 0.12, 0.02);
  // Loop-closing branches add to the explicit branch fraction.
  EXPECT_GT(m.branch_frac, 0.14);
  EXPECT_LT(m.branch_frac, 0.25);
}

TEST(Workload, MemOpsAreAlignedAndSized) {
  WorkloadGenerator g(simple_profile(), 3);
  const Trace t = g.generate(20000);
  for (const auto& op : t.ops) {
    if (!is_mem(op.op)) continue;
    ASSERT_TRUE(op.mem_size == 4 || op.mem_size == 8);
    EXPECT_EQ(op.addr % op.mem_size, 0U) << "unaligned access";
    // Accesses never straddle a 32-byte line.
    EXPECT_EQ(op.addr >> 5, (op.addr + op.mem_size - 1) >> 5);
  }
  // Any other access size is outside the record domain: refused up front.
  WorkloadProfile bad = simple_profile();
  bad.streams[0].access_bytes = 2;
  EXPECT_THROW((void)WorkloadGenerator(bad, 3), std::invalid_argument);
}

// The embedded oracle: replaying stores in program order must make every
// load's recorded value correct.
TEST(Workload, OracleValuesAreProgramOrderConsistent) {
  WorkloadGenerator g(simple_profile(), 21);
  const Trace t = g.generate(50000);
  std::unordered_map<Addr, std::uint8_t> memory;
  for (const auto& op : t.ops) {
    if (op.op == OpClass::kStore) {
      for (std::uint32_t i = 0; i < op.mem_size; ++i) {
        memory[op.addr + i] = static_cast<std::uint8_t>(op.value >> (8 * i));
      }
    } else if (op.op == OpClass::kLoad) {
      std::uint64_t v = 0;
      for (std::uint32_t i = 0; i < op.mem_size; ++i) {
        auto it = memory.find(op.addr + i);
        const std::uint8_t byte = it == memory.end() ? 0 : it->second;
        v |= static_cast<std::uint64_t>(byte) << (8 * i);
      }
      ASSERT_EQ(v, op.value) << "oracle mismatch";
    }
  }
}

TEST(Workload, LoopBranchesHaveStablePcsAndBackwardTargets) {
  WorkloadGenerator g(simple_profile(), 5);
  const Trace t = g.generate(30000);
  std::uint64_t taken_back = 0;
  for (const auto& op : t.ops) {
    if (op.op != OpClass::kBranch || !op.taken) continue;
    if (op.addr < op.pc) ++taken_back;
  }
  EXPECT_GT(taken_back, 200U) << "expected loop structure";
}

TEST(Workload, RegistersRespectClasses) {
  WorkloadProfile p = simple_profile();
  p.fp_frac = 1.0;
  p.load_frac = p.store_frac = p.branch_frac = 0.0;
  WorkloadGenerator g(p, 9);
  const Trace t = g.generate(5000);
  for (const auto& op : t.ops) {
    if (is_fp(op.op)) {
      EXPECT_TRUE(op.dst == kNoReg || is_fp_reg(op.dst));
    }
  }
}

// --- the two knobs the SAMIE evaluation depends on -------------------------

TEST(StreamModel, AccessesPerLineControlsSharing) {
  WorkloadProfile lo = simple_profile();
  lo.streams = {StreamComponent{1.0, 4096, 32, 1, 8, 0.0}};
  WorkloadProfile hi = simple_profile();
  hi.streams = {StreamComponent{1.0, 4096, 32, 6, 4, 0.0}};
  const Trace tlo = WorkloadGenerator(lo, 4).generate(60000);
  const Trace thi = WorkloadGenerator(hi, 4).generate(60000);
  const SharingStats slo = compute_sharing(tlo, 96);
  const SharingStats shi = compute_sharing(thi, 96);
  EXPECT_LT(slo.reuse_fraction, 0.25);
  EXPECT_GT(shi.reuse_fraction, 0.70);
  EXPECT_GT(shi.accesses_per_line, slo.accesses_per_line * 2);
}

TEST(StreamModel, PowerOfTwoStrideConcentratesBanks) {
  // 2048-byte stride with 64 banks of 32-byte lines: every line of the
  // stream maps to one bank (the ammp pathology).
  WorkloadProfile conc = simple_profile();
  conc.streams = {StreamComponent{1.0, 4096, 2048, 2, 8, 0.0}};
  WorkloadProfile spread = simple_profile();
  spread.streams = {StreamComponent{1.0, 4096, 32, 2, 8, 0.0}};
  const Trace tc = WorkloadGenerator(conc, 8).generate(60000);
  const Trace ts = WorkloadGenerator(spread, 8).generate(60000);
  const BankSpreadStats bc = compute_bank_spread(tc, 96, 64);
  const BankSpreadStats bs = compute_bank_spread(ts, 96, 64);
  EXPECT_GT(bc.max_lines_per_bank, bs.max_lines_per_bank * 3);
  EXPECT_NEAR(bc.max_lines_per_bank, bc.mean_distinct_lines, 2.0)
      << "concentrated stream should put nearly all lines in one bank";
}

TEST(StreamModel, FootprintBoundsAddressRange) {
  WorkloadProfile p = simple_profile();
  p.streams = {StreamComponent{1.0, 128, 32, 1, 8, 0.0}};
  const Trace t = WorkloadGenerator(p, 2).generate(30000);
  Addr lo = ~0ULL, hi = 0;
  for (const auto& op : t.ops) {
    if (!is_mem(op.op)) continue;
    lo = std::min(lo, op.addr);
    hi = std::max(hi, op.addr);
  }
  EXPECT_LE(hi - lo, 128U * 32U + 32U);
}

// ------------------------------------------------------------- SPEC2000 ---
TEST(Spec2000, AllProfilesExistAndGenerate) {
  ASSERT_EQ(spec2000_names().size(), 26U);
  for (const auto& name : spec2000_names()) {
    const WorkloadProfile p = spec2000_profile(name);
    EXPECT_EQ(p.name, name);
    EXPECT_FALSE(p.streams.empty());
    WorkloadGenerator g(p, 1);
    const Trace t = g.generate(2000);
    EXPECT_EQ(t.size(), 2000U);
  }
}

TEST(Spec2000, UnknownNameThrows) {
  EXPECT_THROW(spec2000_profile("quake3"), std::out_of_range);
}

TEST(Spec2000, IntFpSplitIsTwelveFourteen) {
  int ints = 0;
  for (const auto& n : spec2000_names()) ints += spec2000_is_int(n) ? 1 : 0;
  EXPECT_EQ(ints, 12);
  EXPECT_TRUE(spec2000_is_int("gcc"));
  EXPECT_FALSE(spec2000_is_int("swim"));
}

TEST(Spec2000, SharingOrderingMatchesPaper) {
  // ammp and swim have the highest in-flight line reuse; sixtrack the
  // lowest (paper Figure 9: 58% vs 21% Dcache savings).
  auto reuse = [](const std::string& name) {
    WorkloadGenerator g(spec2000_profile(name), 3);
    return compute_sharing(g.generate(60000), 96).reuse_fraction;
  };
  const double ammp = reuse("ammp");
  const double swim = reuse("swim");
  const double sixtrack = reuse("sixtrack");
  const double mcf = reuse("mcf");
  EXPECT_GT(ammp, sixtrack + 0.2);
  EXPECT_GT(swim, sixtrack + 0.2);
  EXPECT_GT(ammp, mcf);
}

TEST(Spec2000, BankConcentrationOrderingMatchesPaper) {
  auto conc = [](const std::string& name) {
    WorkloadGenerator g(spec2000_profile(name), 3);
    return compute_bank_spread(g.generate(60000), 96, 64).max_lines_per_bank;
  };
  // ammp needs many same-bank lines in flight; swim and gcc do not.
  EXPECT_GT(conc("ammp"), conc("swim") + 1.5);
  EXPECT_GT(conc("ammp"), conc("gcc") + 1.5);
}

TEST(Spec2000, AllProfilesHaveDistinctStreamsWithinRegions) {
  // Stream regions must not alias across components of the same profile.
  for (const auto& name : spec2000_names()) {
    const WorkloadProfile p = spec2000_profile(name);
    for (std::size_t i = 0; i < p.streams.size(); ++i) {
      const Addr base = stream_region_base(i);
      const Addr extent = p.streams[i].footprint_lines *
                          std::max<Addr>(p.streams[i].line_stride_bytes, 32);
      EXPECT_LT(base + extent, stream_region_base(i + 1))
          << name << " stream " << i << " bleeds into the next region";
    }
  }
}

TEST(Analysis, MixCountsEverything) {
  WorkloadGenerator g(simple_profile(), 13);
  const Trace t = g.generate(10000);
  const MixStats m = compute_mix(t);
  EXPECT_NEAR(m.load_frac + m.store_frac + m.branch_frac + m.fp_frac +
                  m.int_compute_frac,
              1.0, 1e-9);
}

}  // namespace
}  // namespace samie::trace
