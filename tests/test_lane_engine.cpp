// Tests for sim::Lane (src/sim/lane_engine.h), the resumable machine
// run_simulation drives: a lane stepped in arbitrary turn sizes must
// reproduce run_simulation bit for bit, and a turn must budget stepped
// cycles, so a quiescent fast-forward costs one unit of it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/lane_engine.h"
#include "src/sim/simulator.h"
#include "src/trace/spec2000.h"
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

}  // namespace
}  // namespace samie
