// Tests for the simulator façade and experiment runner: configuration
// presets (paper Tables 2/3), end-to-end runs on SPEC2000 profiles,
// energy/area plumbing, determinism, and the parallel job runner.
#include <gtest/gtest.h>

#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/trace/spec2000.h"
#include "src/trace/workload.h"

namespace samie::sim {
namespace {

TEST(Config, PaperDefaultsMatchTables2And3) {
  const SimConfig cfg = paper_config(LsqChoice::kSamie);
  // Table 2.
  EXPECT_EQ(cfg.core.fetch_width, 8U);
  EXPECT_EQ(cfg.core.rob_size, 256U);
  EXPECT_EQ(cfg.core.iq_int, 128U);
  EXPECT_EQ(cfg.core.iq_fp, 128U);
  EXPECT_EQ(cfg.core.int_regs, 160U);
  EXPECT_EQ(cfg.core.fp_regs, 160U);
  EXPECT_EQ(cfg.core.n_int_alu, 6U);
  EXPECT_EQ(cfg.core.n_int_muldiv, 3U);
  EXPECT_EQ(cfg.core.n_fp_alu, 4U);
  EXPECT_EQ(cfg.core.n_fp_muldiv, 2U);
  EXPECT_EQ(cfg.core.lat_int_div, 20U);
  EXPECT_EQ(cfg.core.lat_fp_div, 12U);
  EXPECT_EQ(cfg.memory.l1d.size_bytes, 8U * 1024U);
  EXPECT_EQ(cfg.memory.l1d.associativity, 4U);
  EXPECT_EQ(cfg.memory.l1d.hit_latency, 2U);
  EXPECT_EQ(cfg.memory.l1i.size_bytes, 64U * 1024U);
  EXPECT_EQ(cfg.memory.l2.size_bytes, 512U * 1024U);
  EXPECT_EQ(cfg.memory.l2.hit_latency, 10U);
  EXPECT_EQ(cfg.memory.memory_latency, 100U);
  EXPECT_EQ(cfg.memory.dtlb.entries, 128U);
  EXPECT_EQ(cfg.conventional.entries, 128U);
  // Table 3.
  EXPECT_EQ(cfg.samie.banks, 64U);
  EXPECT_EQ(cfg.samie.entries_per_bank, 2U);
  EXPECT_EQ(cfg.samie.slots_per_entry, 8U);
  EXPECT_EQ(cfg.samie.shared_entries, 8U);
  EXPECT_EQ(cfg.samie.addr_buffer_slots, 64U);
  EXPECT_EQ(cfg.samie.l1d_sets, 64U);
}

TEST(Config, LsqChoiceNames) {
  EXPECT_STREQ(lsq_choice_name(LsqChoice::kConventional), "conventional");
  EXPECT_STREQ(lsq_choice_name(LsqChoice::kSamie), "samie");
  EXPECT_STREQ(lsq_choice_name(LsqChoice::kArb), "arb");
  EXPECT_STREQ(lsq_choice_name(LsqChoice::kUnbounded), "unbounded");
}

TEST(Simulator, SamieWithBanksNotDividingTheSetsRunsClean) {
  // 3 banks against 64 L1D sets: a set's lines sit in all three banks,
  // and every one must drop its presentBit when the set replaces a line.
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  cfg.samie.banks = 3;
  cfg.instructions = 20'000;
  const SimResult r = run_program(cfg, "ammp");
  EXPECT_EQ(r.core.committed, 20'000U);
  EXPECT_EQ(r.core.value_mismatches, 0U);
}

TEST(Simulator, RunsAndIsDeterministic) {
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  cfg.instructions = 20'000;
  const SimResult a = run_program(cfg, "swim");
  const SimResult b = run_program(cfg, "swim");
  EXPECT_EQ(a.core.cycles, b.core.cycles);
  EXPECT_DOUBLE_EQ(a.lsq_energy_nj, b.lsq_energy_nj);
  EXPECT_DOUBLE_EQ(a.area_total, b.area_total);
  EXPECT_EQ(a.core.committed, 20'000U);
  EXPECT_EQ(a.core.value_mismatches, 0U);
}

TEST(Simulator, SamieBreakdownSumsToTotal) {
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  cfg.instructions = 20'000;
  const SimResult r = run_program(cfg, "ammp");
  EXPECT_NEAR(r.lsq_energy_nj,
              r.lsq_distrib_nj + r.lsq_shared_nj + r.lsq_addrbuf_nj + r.lsq_bus_nj,
              1e-9);
  EXPECT_GT(r.lsq_distrib_nj, 0.0);
  EXPECT_GT(r.lsq_bus_nj, 0.0);
}

TEST(Simulator, ConventionalHasNoSamieBreakdown) {
  SimConfig cfg = paper_config(LsqChoice::kConventional);
  cfg.instructions = 10'000;
  const SimResult r = run_program(cfg, "gzip");
  EXPECT_GT(r.lsq_energy_nj, 0.0);
  EXPECT_EQ(r.lsq_distrib_nj, 0.0);
  EXPECT_GT(r.area_total, 0.0);
}

TEST(Simulator, SamieSavesLsqEnergyOnFriendlyPrograms) {
  SimConfig samie = paper_config(LsqChoice::kSamie);
  SimConfig conv = paper_config(LsqChoice::kConventional);
  samie.instructions = conv.instructions = 30'000;
  const SimResult rs = run_program(samie, "swim");
  const SimResult rc = run_program(conv, "swim");
  EXPECT_LT(rs.lsq_energy_nj, rc.lsq_energy_nj * 0.5);
  EXPECT_LT(rs.dcache_energy_nj, rc.dcache_energy_nj);
  EXPECT_LT(rs.dtlb_energy_nj, rc.dtlb_energy_nj);
}

TEST(Simulator, UnboundedSharedModeNeverBuffers) {
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  cfg.samie.unbounded_shared = true;
  cfg.instructions = 20'000;
  const SimResult r = run_program(cfg, "ammp");
  EXPECT_EQ(r.buffer_nonempty_frac, 0.0);
  EXPECT_GT(r.shared_occupancy_mean, 0.0);
  EXPECT_EQ(r.core.deadlock_flushes, 0U);
}

TEST(Simulator, DerivedEnergyConstantsAlsoWork) {
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  cfg.paper_energy_constants = false;
  cfg.instructions = 10'000;
  const SimResult r = run_program(cfg, "gzip");
  EXPECT_GT(r.lsq_energy_nj, 0.0);
  EXPECT_GT(r.dcache_energy_nj, 0.0);
}

TEST(Simulator, AreaPolicyTracksOccupancy) {
  // A SAMIE machine running a tiny-footprint program keeps most of its
  // slots idle: its active area must be far below the all-active bound.
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  cfg.instructions = 10'000;
  const SimResult r = run_program(cfg, "crafty");
  const double per_cycle = r.area_total / static_cast<double>(r.core.cycles);
  const auto k = energy::paper_constants();
  const double all_active =
      64.0 * 2.0 *
      (energy::samie_entry_fixed_area_um2(k) + 8.0 * energy::samie_slot_area_um2(k));
  EXPECT_LT(per_cycle, all_active * 0.8);
  EXPECT_GT(per_cycle, 0.0);
}

TEST(Experiment, RunJobsPreservesOrderAndParallelismIsDeterministic) {
  std::vector<Job> jobs;
  for (const char* prog : {"gzip", "swim", "gzip"}) {
    SimConfig cfg = paper_config(LsqChoice::kSamie);
    cfg.instructions = 10'000;
    jobs.push_back(Job{prog, cfg, "tag"});
  }
  const auto seq = run_jobs(jobs, 1);
  const auto par = run_jobs(jobs, 8);
  ASSERT_EQ(seq.size(), 3U);
  ASSERT_EQ(par.size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(seq[i].job.program, jobs[i].program);
    EXPECT_EQ(seq[i].result.core.cycles, par[i].result.core.cycles);
    EXPECT_DOUBLE_EQ(seq[i].result.lsq_energy_nj, par[i].result.lsq_energy_nj);
  }
  // Identical jobs share a cached trace and must agree exactly.
  EXPECT_EQ(par[0].result.core.cycles, par[2].result.core.cycles);
}

TEST(Experiment, SuiteBuilderCoversAllPrograms) {
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  const auto jobs = jobs_for_suite(cfg, "x");
  EXPECT_EQ(jobs.size(), trace::spec2000_names().size());
  EXPECT_EQ(jobs.front().tag, "x");
}

TEST(Experiment, BenchKnobsHaveSaneDefaults) {
  EXPECT_GT(bench_instructions(1234), 0U);
  EXPECT_GT(bench_threads(), 0U);
}

}  // namespace
}  // namespace samie::sim
