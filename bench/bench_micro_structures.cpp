// google-benchmark microbenchmarks of the simulator's hot structures:
// LSQ placement/search throughput (conventional vs ARB vs SAMIE), cache
// and TLB access paths, branch prediction, trace generation, and
// end-to-end simulated instructions per wall-clock second.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/branch/predictor.h"
#include "src/common/rng.h"
#include "src/core/core.h"
#include "src/mem/hierarchy.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/mem/cache.h"
#include "src/mem/tlb.h"
#include "src/sim/simulator.h"
#include "src/trace/spec2000.h"
#include "src/trace/workload.h"

namespace {

using namespace samie;

/// Drives an LSQ through place -> commit cycles with a strided stream.
template <typename MakeQueue>
void lsq_churn(benchmark::State& state, MakeQueue make) {
  auto q = make();
  Xoshiro256 rng(7);
  InstSeq seq = 0;
  std::vector<InstSeq> live;
  for (auto _ : state) {
    if (live.size() >= 48 || (!live.empty() && !q->can_dispatch(true))) {
      q->on_commit(live.front());
      live.erase(live.begin());
      continue;
    }
    const Addr addr = 0x10000 + (rng.below(512)) * 8;
    q->on_dispatch(seq, true);
    const lsq::Placement p = q->on_address_ready(
        lsq::MemOpDesc{seq, addr, 8, true, false});
    if (p.status == lsq::Placement::Status::kPlaced) {
      live.push_back(seq);
    } else {
      // Buffered: drain immediately to keep the structure moving.
      std::vector<InstSeq> placed;
      q->drain(placed);
      for (InstSeq s : placed) live.push_back(s);
      if (!q->is_placed(seq)) {
        // Give up on this op: free the oldest and retry next iteration.
        if (!live.empty()) {
          q->on_commit(live.front());
          live.erase(live.begin());
        }
        std::vector<InstSeq> placed2;
        q->drain(placed2);
        for (InstSeq s : placed2) live.push_back(s);
      }
    }
    ++seq;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(seq));
}

void BM_ConventionalLsqChurn(benchmark::State& state) {
  lsq_churn(state, [] {
    return std::make_unique<lsq::ConventionalLsq>(lsq::ConventionalLsqConfig{},
                                                  nullptr);
  });
}
BENCHMARK(BM_ConventionalLsqChurn);

void BM_ArbLsqChurn(benchmark::State& state) {
  lsq_churn(state, [] {
    return std::make_unique<lsq::ArbLsq>(
        lsq::ArbConfig{.banks = 8, .rows_per_bank = 16, .max_inflight = 128,
                       .line_bytes = 32});
  });
}
BENCHMARK(BM_ArbLsqChurn);

void BM_SamieLsqChurn(benchmark::State& state) {
  lsq_churn(state, [] {
    return std::make_unique<lsq::SamieLsq>(lsq::SamieConfig{}, nullptr);
  });
}
BENCHMARK(BM_SamieLsqChurn);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache c(mem::CacheConfig{.name = "L1D", .size_bytes = 8192,
                                .associativity = 4, .line_bytes = 32,
                                .hit_latency = 2});
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(0x1000 + rng.below(4096) * 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void BM_TlbAccess(benchmark::State& state) {
  mem::Tlb t(mem::TlbConfig{});
  Xoshiro256 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.access(rng.below(200) * 4096));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TlbAccess);

void BM_HybridPredictor(benchmark::State& state) {
  branch::HybridPredictor p;
  Xoshiro256 rng(5);
  Addr pc = 0x400000;
  for (auto _ : state) {
    pc += 4 + (rng.below(4)) * 4;
    benchmark::DoNotOptimize(p.predict_and_update(pc & 0xFFFF, rng.chance(0.6)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HybridPredictor);

void BM_TraceGeneration(benchmark::State& state) {
  const trace::WorkloadProfile profile = trace::spec2000_profile("swim");
  for (auto _ : state) {
    trace::WorkloadGenerator gen(profile, 11);
    benchmark::DoNotOptimize(gen.generate(10'000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_TraceGeneration);

// --- quiescence check: incremental ledger word vs from-scratch predicate ---
// A mid-flight Core (run() stopped at half the trace, ROB/queues/LSQ
// populated) answers "can any stage act?" two ways: the legacy
// `quiescent()` predicate re-reads every stage's state, while the wake
// ledger — maintained incrementally by the stages — is one word test.
// The pair isolates the engine's per-stepped-cycle check cost.
struct QuiescenceRig {
  trace::Trace trace;
  lsq::SamieLsq lsq{lsq::SamieConfig{}, nullptr};
  mem::MemoryHierarchy memory{mem::HierarchyConfig{}};
  branch::HybridPredictor pred;
  branch::Btb btb;
  core::Core<lsq::SamieLsq, core::NullObserver> core;

  QuiescenceRig()
      : trace(trace::WorkloadGenerator(trace::spec2000_profile("gcc"), 9)
                  .generate(40'000)),
        core(core::CoreConfig{}, trace, lsq, memory, pred, btb, nullptr,
             nullptr, nullptr) {
    (void)core.run(20'000);  // stop mid-flight: state stays populated
  }
};

void BM_QuiescencePredicateFromScratch(benchmark::State& state) {
  QuiescenceRig rig;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.core.quiescent());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuiescencePredicateFromScratch);

void BM_QuiescenceLedgerWordTest(benchmark::State& state) {
  QuiescenceRig rig;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.core.wake_ledger() == 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuiescenceLedgerWordTest);

// --- ROB status scans: AoS record walk vs packed SoA status words ----------
// The commit/issue/writeback questions ("is slot completed? placed?
// waiting?") touch one flag per slot, and the stages reach slots by
// seq — a scattered pattern (wheel pops, wake lists), not a linear
// sweep the prefetcher could hide. Both variants visit the same random
// slot permutation. The AoS record models the former ~104-byte InFlight
// (the flag sits mid-struct: every probe drags a full cache line of
// lists and cold state); the SoA variant is the engine's packed 4-byte
// SlotStatus array. Arg(256) is the paper ROB (AoS: 28 KB touched —
// most of an L1 — vs 1 KB); Arg(4096) a scaled window (AoS probes miss
// to L2, the status words still fit in L1).
struct FatAosSlot {  // mirrors the retired InFlight's footprint
  std::uint64_t seq;
  std::uint32_t gen;
  const void* op;
  std::uint8_t wait_agen, wait_data;
  bool in_iq, agen_issued, agen_done, placed, data_ready;
  bool executing, completed, mispredicted;
  std::uint64_t load_value;
  std::uint64_t prev_rename;
  std::array<std::uint64_t, 6> list_headers;  // 3 former vectors
};

void BM_RobStatusScanAoS(benchmark::State& state) {
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  std::vector<FatAosSlot> rob(slots);
  Xoshiro256 rng(17);
  for (auto& s : rob) s.completed = rng.chance(0.5);
  std::vector<std::uint32_t> order(slots);
  for (std::size_t i = 0; i < slots; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = slots; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (auto _ : state) {
    std::uint32_t n = 0;
    for (const std::uint32_t i : order) n += rob[i].completed ? 1 : 0;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_RobStatusScanAoS)->Arg(256)->Arg(4096);

void BM_RobStatusScanSoA(benchmark::State& state) {
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  std::vector<core::SlotStatus> rob(slots);
  Xoshiro256 rng(17);
  for (auto& s : rob) {
    if (rng.chance(0.5)) s.set(core::SlotStatus::kCompleted);
  }
  std::vector<std::uint32_t> order(slots);
  for (std::size_t i = 0; i < slots; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = slots; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (auto _ : state) {
    std::uint32_t n = 0;
    for (const std::uint32_t i : order) n += rob[i].completed() ? 1 : 0;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_RobStatusScanSoA)->Arg(256)->Arg(4096);

void BM_EndToEndSimulation(benchmark::State& state) {
  sim::SimConfig cfg = sim::paper_config(
      state.range(0) == 0 ? sim::LsqChoice::kConventional
                          : sim::LsqChoice::kSamie);
  cfg.instructions = 20'000;
  trace::WorkloadGenerator gen(trace::spec2000_profile("gzip"), 1);
  const trace::Trace t = gen.generate(cfg.instructions);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(cfg, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.instructions));
  state.SetLabel(state.range(0) == 0 ? "conventional" : "samie");
}
BENCHMARK(BM_EndToEndSimulation)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
