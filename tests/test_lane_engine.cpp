// Tests for sim::Lane (src/sim/lane_engine.h), the resumable machine
// run_simulation drives: a lane stepped in arbitrary turn sizes must
// reproduce run_simulation bit for bit, and a turn must budget stepped
// cycles, so a quiescent fast-forward costs one unit of it. A lane over
// a TraceSource, which decodes each block into a ring as fetch reaches
// it, must reproduce a lane over the flat records bit for bit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/branch/predictor.h"
#include "src/core/core.h"
#include "src/lsq/samie_lsq.h"
#include "src/mem/hierarchy.h"
#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/lane_engine.h"
#include "src/sim/simulator.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"

namespace samie {
namespace {

[[nodiscard]] sim::SimConfig small_config(sim::LsqChoice lsq,
                                          std::uint64_t insts = 4000) {
  sim::SimConfig cfg = sim::paper_config(lsq);
  cfg.instructions = insts;
  return cfg;
}

[[nodiscard]] trace::TraceSource trace_for(const sim::SimConfig& cfg,
                                           const std::string& program) {
  return trace::TraceSource::generate(trace::spec2000_profile(program),
                                      cfg.seed, cfg.instructions);
}

const sim::LsqChoice kAllLsqs[] = {
    sim::LsqChoice::kConventional, sim::LsqChoice::kUnbounded,
    sim::LsqChoice::kArb, sim::LsqChoice::kSamie};

TEST(Lane, SteppedLaneIsBitIdenticalToRunSimulation) {
  // Slicing the cycle loop into turns of any size must not change a
  // single statistic: step() shares run()'s loop body verbatim.
  for (const sim::LsqChoice lsq : kAllLsqs) {
    const sim::SimConfig cfg = small_config(lsq);
    const trace::TraceSource src = trace_for(cfg, "gcc");
    const sim::SimResult whole = sim::run_simulation(cfg, src.view());
    for (const std::uint64_t turn : {1ULL, 7ULL, 4096ULL}) {
      std::unique_ptr<sim::Lane> lane = sim::make_lane(cfg, src.view());
      while (lane->step(turn)) {
      }
      const sim::SimResult sliced = lane->finish();
      EXPECT_EQ(sim::serialize_sim_result(sliced),
                sim::serialize_sim_result(whole))
          << sim::lsq_choice_name(lsq) << " turn=" << turn;
    }
  }
}

TEST(Lane, QuiescentFastForwardReducesTurnCount) {
  // A turn budgets *stepped* cycles, and a quiescent-cycle fast-forward
  // consumes one budget unit regardless of jump width. A lane over the
  // same trace must therefore need strictly fewer step() calls with the
  // fast-forward on than with always_step — while producing
  // bit-identical statistics.
  sim::SimConfig skip_cfg = small_config(sim::LsqChoice::kSamie);
  sim::SimConfig step_cfg = skip_cfg;
  step_cfg.core.always_step = true;
  const trace::TraceSource src = trace_for(skip_cfg, "gcc");

  const auto turns = [&](const sim::SimConfig& cfg, sim::SimResult& out) {
    std::unique_ptr<sim::Lane> lane = sim::make_lane(cfg, src.view());
    std::uint64_t n = 0;
    while (lane->step(256)) ++n;
    out = lane->finish();
    return n;
  };
  sim::SimResult skipped;
  sim::SimResult walked;
  const std::uint64_t skip_turns = turns(skip_cfg, skipped);
  const std::uint64_t step_turns = turns(step_cfg, walked);
  ASSERT_GT(skipped.core.quiescent_cycles_skipped, 256U);
  EXPECT_LT(skip_turns, step_turns);
  EXPECT_EQ(skipped.core.cycles, walked.core.cycles);
  EXPECT_EQ(skipped.core.committed, walked.core.committed);
}

/// The paper's core with 1280 records in flight (rob_size 1024 plus
/// fetch_queue 256) and issue queues and registers to fill them.
[[nodiscard]] sim::SimConfig deep_config(sim::LsqChoice lsq) {
  sim::SimConfig cfg = small_config(lsq, 30'000);
  cfg.core.rob_size = 1024;
  cfg.core.fetch_queue = 256;
  cfg.core.iq_int = 1024;
  cfg.core.iq_fp = 1024;
  cfg.core.int_regs = 1024;
  cfg.core.fp_regs = 1024;
  return cfg;
}

TEST(Lane, SourceWindowIsBitIdenticalToTheFlatView) {
  // Two geometries: the paper's core over a generated source (4096-record
  // blocks, 320 records in flight, an 8192-record ring), and a core
  // holding 1280 records in flight over a file of 512-record blocks,
  // whose 2048-record ring keeps little beyond one block and the
  // in-flight records. Each under every LSQ, event-driven and
  // always-step, against the same records read flat.
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() /
      ("samie_lane_window_" + std::to_string(::getpid()) + ".samt");
  for (const bool deep : {false, true}) {
    for (const sim::LsqChoice lsq : kAllLsqs) {
      sim::SimConfig cfg = deep ? deep_config(lsq) : small_config(lsq, 30'000);
      const trace::TraceSource generated = trace_for(cfg, "mcf");
      if (deep) {
        trace::write_samt_v2(file.string(), generated.view(), "mcf", cfg.seed,
                             /*block_records=*/512);
      }
      const trace::TraceSource src =
          deep ? trace::TraceSource::open_samt(file.string())
               : trace_for(cfg, "mcf");
      ASSERT_EQ(src.max_block_records(), deep ? 512U : 4096U);
      for (const bool always_step : {false, true}) {
        SCOPED_TRACE(std::string(sim::lsq_choice_name(lsq)) +
                     (deep ? " deep" : " paper") +
                     (always_step ? " always_step" : " event-driven"));
        cfg.core.always_step = always_step;
        const sim::SimResult flat =
            sim::run_simulation(cfg, generated.view());
        ASSERT_EQ(flat.core.committed, cfg.instructions);
        EXPECT_EQ(sim::serialize_sim_result(sim::run_simulation(cfg, src)),
                  sim::serialize_sim_result(flat));
      }
    }
  }
  std::filesystem::remove(file);
}

TEST(Lane, SourceWindowRefusesACoreItCannotHold) {
  // A window keeping fewer records behind fetch than the core holds in
  // flight would overwrite records the core still reads.
  const sim::SimConfig cfg = small_config(sim::LsqChoice::kSamie);
  const trace::TraceSource src = trace_for(cfg, "gcc");
  lsq::SamieLsq queue(cfg.samie, nullptr);
  mem::MemoryHierarchy memory(cfg.memory);
  branch::HybridPredictor predictor;
  branch::Btb btb;
  const auto build = [&](std::size_t behind) {
    core::Core core(cfg.core, trace::TraceWindow(src, behind), queue, memory,
                    predictor, btb, nullptr, nullptr, nullptr);
  };
  EXPECT_THROW(build(cfg.core.rob_size), std::invalid_argument);
  EXPECT_NO_THROW(build(cfg.core.rob_size + cfg.core.fetch_queue));
}

TEST(Lane, RefusesACoreConfigWithAZeroWidthCapacityOrUnitCount) {
  // Each of these at zero wedges the pipeline: the lane must be refused
  // when it is built, naming the field, not after the commit watchdog's
  // 200,000 cycles.
  const sim::SimConfig base = small_config(sim::LsqChoice::kSamie);
  const trace::TraceSource src = trace_for(base, "gcc");
  const std::pair<const char*, std::uint32_t core::CoreConfig::*> fields[] = {
      {"fetch_width", &core::CoreConfig::fetch_width},
      {"dispatch_width", &core::CoreConfig::dispatch_width},
      {"issue_width_int", &core::CoreConfig::issue_width_int},
      {"issue_width_fp", &core::CoreConfig::issue_width_fp},
      {"commit_width", &core::CoreConfig::commit_width},
      {"rob_size", &core::CoreConfig::rob_size},
      {"iq_int", &core::CoreConfig::iq_int},
      {"iq_fp", &core::CoreConfig::iq_fp},
      {"fetch_queue", &core::CoreConfig::fetch_queue},
      {"int_regs", &core::CoreConfig::int_regs},
      {"fp_regs", &core::CoreConfig::fp_regs},
      {"dcache_ports", &core::CoreConfig::dcache_ports},
      {"n_int_alu", &core::CoreConfig::n_int_alu},
      {"n_int_muldiv", &core::CoreConfig::n_int_muldiv},
      {"n_fp_alu", &core::CoreConfig::n_fp_alu},
      {"n_fp_muldiv", &core::CoreConfig::n_fp_muldiv},
  };
  for (const auto& [name, field] : fields) {
    SCOPED_TRACE(name);
    sim::SimConfig cfg = base;
    cfg.core.*field = 0;
    try {
      (void)sim::make_lane(cfg, src.view());
      ADD_FAILURE() << "make_lane accepted " << name << " = 0";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
  for (const sim::LsqChoice lsq : kAllLsqs) {
    EXPECT_NO_THROW((void)sim::make_lane(small_config(lsq), src.view()));
  }
}

TEST(Lane, RefusesANonPowerOfTwoOrMismatchedGeometry) {
  // Each of these describes a broken machine: a cache whose line or set
  // count is not a power of two indexes with wrong masks, a queue line
  // that is not a power of two or exceeds 256 bytes (a slot keeps its
  // line offset in one byte) forwards wrong values, and a SAMIE line or
  // set count other than the L1D's can break the presentBit protocol
  // (§3.4), and a TLB page that is not a power of two translates with a
  // wrong shift, while a TLB with no entries has nothing to evict. The
  // lane must be refused when it is built, naming the field.
  struct Case {
    const char* field;  ///< must appear in the refusal
    sim::LsqChoice lsq;
    void (*edit)(sim::SimConfig&);
  };
  using L = sim::LsqChoice;
  const Case cases[] = {
      {"L1D: line_bytes", L::kConventional,
       [](sim::SimConfig& c) { c.memory.l1d.line_bytes = 24; }},
      {"L1D: line_bytes", L::kConventional,
       [](sim::SimConfig& c) { c.memory.l1d.line_bytes = 0; }},
      {"L1D: set count", L::kConventional,
       [](sim::SimConfig& c) { c.memory.l1d.associativity = 3; }},
      {"L1D: set count", L::kConventional,
       [](sim::SimConfig& c) { c.memory.l1d.size_bytes = 12 * 1024; }},
      {"L1I: associativity", L::kConventional,
       [](sim::SimConfig& c) { c.memory.l1i.associativity = 0; }},
      {"L2: line_bytes", L::kConventional,
       [](sim::SimConfig& c) { c.memory.l2.line_bytes = 48; }},
      {"ArbConfig: line_bytes", L::kArb,
       [](sim::SimConfig& c) { c.arb.line_bytes = 24; }},
      {"ArbConfig: line_bytes", L::kArb,
       [](sim::SimConfig& c) { c.arb.line_bytes = 0; }},
      {"ArbConfig: line_bytes", L::kArb,
       [](sim::SimConfig& c) { c.arb.line_bytes = 512; }},
      {"samie.line_bytes", L::kSamie,
       [](sim::SimConfig& c) { c.samie.line_bytes = 64; }},
      {"samie.line_bytes", L::kSamie,
       [](sim::SimConfig& c) { c.samie.line_bytes = 16; }},
      {"samie.l1d_sets", L::kSamie,
       [](sim::SimConfig& c) { c.samie.l1d_sets = 32; }},
      {"samie.l1d_sets", L::kSamie,
       [](sim::SimConfig& c) { c.samie.l1d_sets = 0; }},
      {"DTLB: page_bytes", L::kSamie,
       [](sim::SimConfig& c) { c.memory.dtlb.page_bytes = 3000; }},
      {"ITLB: page_bytes", L::kConventional,
       [](sim::SimConfig& c) { c.memory.itlb.page_bytes = 0; }},
      {"DTLB: entries", L::kConventional,
       [](sim::SimConfig& c) { c.memory.dtlb.entries = 0; }},
      {"ITLB: entries", L::kArb,
       [](sim::SimConfig& c) { c.memory.itlb.entries = 0; }},
  };
  const trace::TraceSource src =
      trace_for(small_config(sim::LsqChoice::kSamie), "gcc");
  for (const Case& k : cases) {
    SCOPED_TRACE(k.field);
    sim::SimConfig cfg = small_config(k.lsq);
    k.edit(cfg);
    try {
      (void)sim::make_lane(cfg, src.view());
      ADD_FAILURE() << "make_lane accepted a bad " << k.field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(k.field), std::string::npos)
          << e.what();
    }
  }
  for (const sim::LsqChoice lsq : kAllLsqs) {
    EXPECT_NO_THROW((void)sim::make_lane(small_config(lsq), src.view()));
  }
}

}  // namespace
}  // namespace samie
