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
#include <string>

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

}  // namespace
}  // namespace samie
