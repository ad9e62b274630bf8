// The simulator façade: builds core + memory + predictor + LSQ + ledgers
// from a SimConfig, runs a trace, and folds everything the paper's figures
// need into one SimResult. The D-cache and DTLB energies are folded from
// the core's own access counts (SimResult::core), which no ledger repeats.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/stats.h"
#include "src/sim/sim_config.h"
#include "src/trace/instruction.h"
#include "src/trace/trace_view.h"

namespace samie::trace {
class TraceSource;
}  // namespace samie::trace

namespace samie::sim {

/// Raw integer event counts of the two LSQ energy ledgers, in one flat
/// array, carried beside the folded energies: the checkpoint journal
/// round-trips them with the rest of the result, and work-count
/// reporting (placement searches, addresses compared) reads them.
/// Layout: [kConv..) ConvLsqLedger, [kSamie..) SamieLsqLedger. The
/// D-cache and DTLB access counts live in core::CoreResult alone.
struct LedgerCounts {
  static constexpr std::size_t kConv = 0;   ///< 4 counts
  static constexpr std::size_t kSamie = 4;  ///< 20 counts
  static constexpr std::size_t kCount = 24;
  std::uint64_t v[kCount] = {};
};

struct SimResult {
  // -- timing -----------------------------------------------------------------
  core::CoreResult core;

  // -- dynamic energy (nJ) ------------------------------------------------------
  double lsq_energy_nj = 0.0;      ///< total for the LSQ organization
  double lsq_distrib_nj = 0.0;     ///< SAMIE breakdown (Figure 8)
  double lsq_shared_nj = 0.0;
  double lsq_addrbuf_nj = 0.0;
  double lsq_bus_nj = 0.0;
  double dcache_energy_nj = 0.0;   ///< Figure 9, from core.dcache_*
  double dtlb_energy_nj = 0.0;     ///< Figure 10, from core.dtlb_accesses

  // -- active area integrals (um^2 * cycles) -----------------------------------
  double area_total = 0.0;         ///< Figure 11
  double area_distrib = 0.0;       ///< Figure 12 breakdown
  double area_shared = 0.0;
  double area_addrbuf = 0.0;

  // -- occupancy ------------------------------------------------------------------
  double shared_occupancy_mean = 0.0;   ///< Figure 3 (unbounded SharedLSQ)
  std::uint64_t shared_occupancy_max = 0;
  double buffer_nonempty_frac = 0.0;    ///< Figure 4 (cycles AddrBuffer busy)
  double buffer_occupancy_mean = 0.0;

  // -- memory-system counters ---------------------------------------------------
  std::uint64_t l1d_hits = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t dtlb_hits = 0;
  std::uint64_t dtlb_misses = 0;
  std::uint64_t branch_mispredicts = 0;
  std::uint64_t branch_lookups = 0;

  // -- raw ledger counts (see LedgerCounts) -------------------------------------
  LedgerCounts ledgers;

  /// Deadlock-avoidance flushes per million cycles (Figure 6).
  [[nodiscard]] double deadlocks_per_mcycle() const {
    return core.cycles == 0 ? 0.0
                            : static_cast<double>(core.deadlock_flushes) * 1e6 /
                                  static_cast<double>(core.cycles);
  }
};

/// Runs `cfg` over `trace` (a fresh machine per call; deterministic).
/// The view's backing storage (an owned Trace, or a TraceSource's
/// view()) must stay alive for the duration of the call; `const
/// trace::Trace&` call sites convert implicitly.
[[nodiscard]] SimResult run_simulation(const SimConfig& cfg,
                                       trace::TraceView trace);
/// The same run over `source`'s blocks, decoded as fetch reaches them
/// (make_lane's source overload): bit-identical to running
/// source.view(), without ever decoding the whole trace.
[[nodiscard]] SimResult run_simulation(const SimConfig& cfg,
                                       const trace::TraceSource& source);

/// Convenience: generates the named SPEC2000-profile trace and runs it.
[[nodiscard]] SimResult run_program(const SimConfig& cfg,
                                    const std::string& program);

/// Convenience: replays the whole recorded SAMT trace at
/// `cfg.trace_path` (TraceSource::open_samt), capped at
/// `cfg.instructions` records. Throws trace::TraceFormatError on
/// malformed files (TraceCorruptError for damaged ones) and
/// std::invalid_argument when `cfg.trace_path` is empty.
[[nodiscard]] SimResult run_trace_file(const SimConfig& cfg);

}  // namespace samie::sim
