// Sharded replay of one long SAMT v2 trace, with exact integer-ledger
// stat reconciliation.
//
// The v2 footer index makes block boundaries addressable, so a single
// long recording can run as N block-aligned shard jobs — each an
// ordinary sweep job (a worker thread or a forked child), each decoding
// only its own blocks. Every shard replays a warm-up prefix ahead of its
// measured range and reports *measured-region* statistics as the
// difference of two complete runs (ShardLane in lane_engine.cpp):
//
//   measured(shard i) = R([warm_start_i, end_i)) - R([warm_start_i, begin_i))
//
// With a full warm-up prefix (warm_start_i == 0, the default), shard
// i's base run and shard i-1's whole run are the SAME complete
// deterministic run, so summing the per-shard differences telescopes:
// every integer counter — cycles and drain overhead included — of the
// merged result equals the unsharded run's bit for bit, and the energy
// re-fold over the merged raw ledger counts reproduces the unsharded
// energies bit for bit too. A partial warm-up (--shard-warmup=W) trades
// that exactness for O(N*W) instead of O(N*T) replay cost: the classic
// sampled-simulation approximation. FP-accumulated statistics (occupancy
// means, area integrals) have no integer sufficient statistic and are
// reconciled cycle-weighted — documented approximate either way.
// docs/SWEEP_ROBUSTNESS.md covers the semantics and the exactness scope.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "src/sim/sim_config.h"
#include "src/sim/simulator.h"

namespace samie::sim {

/// One shard of a sharded-replay plan: the job plus the measured range
/// it covers (for reporting and reconciliation bookkeeping).
struct TraceShardJob {
  Job job;
  std::uint64_t measure_begin = 0;
  std::uint64_t measure_end = 0;
};

/// Splits `base` (a job whose config.trace_path names a SAMT v2 trace)
/// into `shards` block-aligned shard jobs covering the records `base`
/// would replay (min(header count, base.config.instructions)). Shard
/// boundaries land on block starts — blocks are the v2 unit of random
/// access — distributed as evenly as the block sizes allow; shards that
/// would be empty are dropped, so fewer jobs than `shards` can return.
/// `warmup` is the per-shard warm-up prefix in records (UINT64_MAX =
/// full prefix: the exact mode). Shard job programs are suffixed
/// "#i/N" so journal lines and CSV rows stay distinguishable.
/// Throws TraceFormatError (or TraceCorruptError) if the trace cannot
/// be opened or indexed, and std::invalid_argument for a v1 trace or
/// shards == 0.
[[nodiscard]] std::vector<TraceShardJob> make_trace_shard_jobs(
    const Job& base, std::uint32_t shards, std::uint64_t warmup);

/// Measured-region statistics as the difference of two complete runs of
/// the same machine (whole minus base). Integer counters subtract in
/// wrap-around space — per-shard values can transiently "borrow" when a
/// drain effect lands in the base run, and the borrow cancels exactly in
/// the telescoped sum. Energies are re-folded from the subtracted raw
/// ledger counts through `cfg`'s constants; ipc is recomputed; occupancy
/// means are reconstructed cycle-weighted; area integrals subtract in FP
/// (approximate).
[[nodiscard]] SimResult subtract_measured(const SimResult& whole,
                                          const SimResult& base,
                                          const SimConfig& cfg);

/// Reconciles per-shard measured results into one whole-trace result:
/// integer counters and raw ledger counts sum (associative, any order),
/// energies re-fold from the summed counts, ipc is recomputed, occupancy
/// means merge cycle-weighted, maxima take the max, area integrals sum.
/// With full warm-up the integer fields and every energy are bit-equal
/// to the unsharded run over the same region. Throws
/// std::invalid_argument on an empty vector.
[[nodiscard]] SimResult merge_shard_results(
    const std::vector<SimResult>& shards, const SimConfig& cfg);

}  // namespace samie::sim
