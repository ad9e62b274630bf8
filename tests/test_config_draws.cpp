// Random joint configurations: every machine a SimConfig can describe is
// either refused when its lane is built or simulated correctly. A fixed
// seed draws a few hundred configurations at once over the core's widths,
// sizes, functional units and latencies, the D-cache ports, the three
// queues' geometries and the cache and TLB geometries, zeros and
// non-power-of-two sizes included. Each draw must do one of two things:
//   * sim::make_lane throws std::invalid_argument; or
//   * the run completes with no load value mismatch, and the event-driven
//     and always-step engines give the same serialize_sim_result once the
//     two engine-only counts (quiescent_cycles_skipped, fast_forwards) are
//     zeroed.
// Anything else (a watchdog wedge, a crash, a wrong value, a divergence)
// is a model bug that no single-parameter test would have found.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/common/rng.h"
#include "src/sim/checkpoint.h"
#include "src/sim/lane_engine.h"
#include "src/sim/sim_config.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_source.h"

namespace samie {
namespace {

constexpr std::uint64_t kSeed = 20061;
constexpr int kDraws = 300;
constexpr std::uint64_t kInstructions = 4000;
/// How often a field takes one of its broken values other than 0.
constexpr double kOdd = 0.03;

/// Uniform in [lo, hi], or now and then (1 in 100) 0: a size that
/// describes no machine at all.
std::uint32_t size_or_zero(Xoshiro256& r, std::uint32_t lo,
                           std::uint32_t hi) {
  if (r.below(100) == 0) return 0;
  return lo + static_cast<std::uint32_t>(r.below(hi - lo + 1));
}

std::uint32_t one_of(Xoshiro256& r,
                     std::initializer_list<std::uint32_t> values) {
  return values.begin()[r.below(values.size())];
}

/// A cache: a power-of-two set count, or now and then a size whose set
/// count is not one; line sizes include 0 and 24.
void draw_cache(Xoshiro256& r, mem::CacheConfig& c,
                std::uint32_t max_set_bits) {
  c.associativity = size_or_zero(r, 1, 8);
  c.line_bytes =
      r.chance(kOdd) ? one_of(r, {0, 24, 48}) : one_of(r, {16, 32, 64});
  const std::uint64_t sets = r.chance(kOdd) ? one_of(r, {0, 3, 96})
                                            : 1ULL << r.below(max_set_bits + 1);
  c.size_bytes = sets * c.associativity * c.line_bytes;
  c.hit_latency = size_or_zero(r, 1, 4);
}

void draw_tlb(Xoshiro256& r, mem::TlbConfig& t) {
  t.entries = size_or_zero(r, 1, 160);
  t.page_bytes = r.chance(kOdd) ? one_of(r, {0, 3000, 6144})
                                : one_of(r, {1024, 4096, 8192});
  t.hit_latency = size_or_zero(r, 1, 2);
  t.miss_penalty = size_or_zero(r, 1, 60);
}

[[nodiscard]] sim::SimConfig draw_config(Xoshiro256& r) {
  sim::SimConfig cfg =
      sim::paper_config(static_cast<sim::LsqChoice>(r.below(4)));
  cfg.instructions = kInstructions;
  cfg.seed = r.below(1000);

  core::CoreConfig& c = cfg.core;
  c.fetch_width = size_or_zero(r, 1, 12);
  c.dispatch_width = size_or_zero(r, 1, 12);
  c.issue_width_int = size_or_zero(r, 1, 12);
  c.issue_width_fp = size_or_zero(r, 1, 12);
  c.commit_width = size_or_zero(r, 1, 12);
  c.rob_size = size_or_zero(r, 1, 320);
  c.iq_int = size_or_zero(r, 1, 160);
  c.iq_fp = size_or_zero(r, 1, 160);
  c.fetch_queue = size_or_zero(r, 1, 96);
  c.int_regs = size_or_zero(r, 1, 200);
  c.fp_regs = size_or_zero(r, 1, 200);
  c.dcache_ports = size_or_zero(r, 1, 6);
  c.redirect_penalty = size_or_zero(r, 1, 6);
  c.n_int_alu = size_or_zero(r, 1, 8);
  c.n_int_muldiv = size_or_zero(r, 1, 4);
  c.n_fp_alu = size_or_zero(r, 1, 6);
  c.n_fp_muldiv = size_or_zero(r, 1, 3);
  c.lat_int_alu = size_or_zero(r, 1, 3);
  c.lat_int_mul = size_or_zero(r, 1, 8);
  c.lat_int_div = size_or_zero(r, 1, 40);
  c.lat_fp_alu = size_or_zero(r, 1, 6);
  c.lat_fp_mul = size_or_zero(r, 1, 8);
  c.lat_fp_div = size_or_zero(r, 1, 30);
  c.exploit_known_line_latency = r.chance(0.5);

  mem::HierarchyConfig& m = cfg.memory;
  draw_cache(r, m.l1i, 10);
  draw_cache(r, m.l1d, 8);
  draw_cache(r, m.l2, 12);
  m.memory_latency = size_or_zero(r, 1, 200);
  draw_tlb(r, m.itlb);
  draw_tlb(r, m.dtlb);

  cfg.conventional.entries = size_or_zero(r, 1, 192);

  cfg.arb.banks = size_or_zero(r, 1, 16);
  cfg.arb.rows_per_bank = size_or_zero(r, 1, 32);
  cfg.arb.max_inflight = size_or_zero(r, 1, 192);
  cfg.arb.line_bytes =
      r.chance(kOdd) ? one_of(r, {0, 24, 512}) : m.l1d.line_bytes;

  lsq::SamieConfig& s = cfg.samie;
  s.banks = size_or_zero(r, 1, 96);
  s.entries_per_bank = r.chance(kOdd) ? 65 : size_or_zero(r, 1, 64);
  s.slots_per_entry = r.chance(kOdd) ? 65 : size_or_zero(r, 1, 64);
  s.shared_entries = size_or_zero(r, 1, 16);
  s.unbounded_shared = r.chance(0.1);
  s.addr_buffer_slots = size_or_zero(r, 1, 96);
  s.drain_width = size_or_zero(r, 1, 8);
  // The SAMIE copy of the L1D geometry, which a lane must refuse when it
  // differs from the L1D's.
  s.line_bytes = r.chance(kOdd) ? one_of(r, {16, 64}) : m.l1d.line_bytes;
  s.l1d_sets = r.chance(kOdd) ? size_or_zero(r, 1, 128)
                              : static_cast<std::uint32_t>(m.l1d.sets());
  return cfg;
}

/// Steps `cfg` over `src` to completion; the result with the two counts
/// only the event-driven engine makes zeroed.
[[nodiscard]] sim::SimResult run_engine(sim::SimConfig cfg,
                                        const trace::TraceSource& src,
                                        bool always_step) {
  cfg.core.always_step = always_step;
  const std::unique_ptr<sim::Lane> lane = sim::make_lane(cfg, src);
  while (lane->step(1'000'000)) {
  }
  sim::SimResult r = lane->finish();
  r.core.quiescent_cycles_skipped = 0;
  r.core.fast_forwards = 0;
  return r;
}

TEST(ConfigDraws, EveryDrawIsRefusedOrSimulatedIdenticallyByBothEngines) {
  Xoshiro256 r(kSeed);
  const auto& programs = trace::spec2000_names();
  int refused = 0;
  int simulated = 0;
  for (int i = 0; i < kDraws; ++i) {
    const sim::SimConfig cfg = draw_config(r);
    const std::string& program = programs[r.below(programs.size())];
    SCOPED_TRACE("draw " + std::to_string(i) + ": " + program + " under " +
                 sim::lsq_choice_name(cfg.lsq));
    const trace::TraceSource src = trace::TraceSource::generate(
        trace::spec2000_profile(program), cfg.seed, cfg.instructions);
    try {
      (void)sim::make_lane(cfg, src);
    } catch (const std::invalid_argument&) {
      ++refused;
      continue;
    }
    try {
      const sim::SimResult fast = run_engine(cfg, src, false);
      const sim::SimResult step = run_engine(cfg, src, true);
      EXPECT_EQ(fast.core.value_mismatches, 0U);
      EXPECT_EQ(fast.core.committed, kInstructions);
      EXPECT_EQ(sim::serialize_sim_result(fast),
                sim::serialize_sim_result(step));
      ++simulated;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "accepted, then failed: " << e.what();
    }
  }
  // The draws must reach both outcomes, or the test checks nothing.
  EXPECT_GT(refused, kDraws / 10);
  EXPECT_GT(simulated, kDraws / 2);
  std::printf("%d draws: %d refused, %d simulated\n", kDraws, refused,
              simulated);
}

}  // namespace
}  // namespace samie
