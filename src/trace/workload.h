// Synthetic workload model.
//
// A WorkloadProfile describes a program statistically; WorkloadGenerator
// turns a (profile, seed, length) triple into a deterministic Trace. The
// memory side is a mixture of address streams, each of which walks cache
// lines with a configurable *intra-line* access count and *inter-line*
// stride:
//
//   * `accesses_per_line` controls how many in-flight instructions share a
//     line — the property SAMIE-LSQ's multi-instruction entries exploit;
//   * `line_stride_bytes` controls how consecutive lines spread over the
//     DistribLSQ banks. Bank count in the paper's configuration is 64 with
//     32-byte lines, so a 2048-byte stride (64*32) maps *every* line of the
//     stream to the same bank — the pathology the paper reports for ammp,
//     apsi, mgrid, facerec and art.
//
// The control side emits loops (predictable backward branches) plus
// data-dependent branches with configurable entropy; the dataflow side
// draws dependency distances from a geometric distribution so issue-level
// ILP is tunable per program.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sparse_memory.h"
#include "src/common/types.h"
#include "src/trace/instruction.h"

namespace samie::trace {

/// One component of the memory address mixture.
struct StreamComponent {
  /// Relative probability of a memory access using this stream.
  double weight = 1.0;
  /// Region size in cache lines (the walk wraps around).
  std::uint64_t footprint_lines = 1024;
  /// Distance between the *lines* of consecutive walk steps, in bytes.
  /// 32 = dense sequential; 2048 = one line per DistribLSQ bank period.
  std::uint64_t line_stride_bytes = 32;
  /// Consecutive accesses falling in a line before the walk advances.
  std::uint32_t accesses_per_line = 1;
  /// Bytes per access: 4 or 8 (the generator throws otherwise); accesses
  /// are naturally aligned.
  std::uint32_t access_bytes = 8;
  /// Probability of abandoning the walk for a random line in the region
  /// (models pointer chasing / hash lookups).
  double jump_p = 0.0;
};

/// Statistical description of one program.
struct WorkloadProfile {
  std::string name = "synthetic";
  /// Fraction of instructions that are loads / stores.
  double load_frac = 0.25;
  double store_frac = 0.12;
  /// Fraction of instructions that are conditional branches.
  double branch_frac = 0.15;
  /// Of non-memory non-branch instructions, fraction that are FP.
  double fp_frac = 0.0;
  /// Within INT compute: multiplier / divider usage.
  double int_mul_frac = 0.05;
  double int_div_frac = 0.01;
  /// Within FP compute: multiplier / divider usage.
  double fp_mul_frac = 0.30;
  double fp_div_frac = 0.03;
  /// Mean iterations of the emitted loops (drives loop-branch
  /// predictability: one mispredict per ~avg_loop_iters).
  double avg_loop_iters = 16.0;
  /// Mean loop-body length in instructions.
  double avg_loop_body = 24.0;
  /// Fraction of branches that are data-dependent coin flips (taken with
  /// p=0.5) rather than loop-closing branches.
  double branch_entropy = 0.15;
  /// Mean register dependency distance; larger = more ILP.
  double dep_mean = 5.0;
  /// Probability that a memory instruction's address depends on an
  /// in-flight value (pointer chasing). Array codes compute addresses from
  /// early-ready induction variables, so this is low for FP workloads and
  /// high for codes like mcf.
  double addr_dep_p = 0.2;
  /// Memory address mixture (must be non-empty for load_frac+store_frac>0).
  std::vector<StreamComponent> streams;
};

/// Deterministic trace generator. Not copyable while generating; cheap to
/// construct per (profile, seed).
class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadProfile& profile, std::uint64_t seed);

  /// Generates `n` instructions. The returned trace embeds oracle values:
  /// each load's `value` is the program-order-correct loaded value.
  [[nodiscard]] Trace generate(std::uint64_t n);
  /// Writes the next `n` instructions to out[0, n): the records
  /// generate(n) would return, into storage the caller owns.
  void generate_into(MicroOp* out, std::uint64_t n);

 private:
  struct StreamState {
    std::uint64_t cursor_line = 0;  ///< walk step, wrapped into the footprint
    std::uint32_t line_left = 0;    ///< accesses remaining in current line
    std::uint64_t offset = 0;       ///< next offset within the line
  };

  /// The last kSize destination registers of one class, newest at
  /// `head`; older ones follow it circularly.
  struct RecentRing {
    static constexpr std::size_t kSize = 64;
    std::array<RegId, kSize> regs{};
    std::size_t head = 0;
  };

  /// Writes the next op to `op`, field by field: building it on the
  /// stack and copying it out stalls store-to-load forwarding.
  void next_op(MicroOp& op);
  [[nodiscard]] Addr next_mem_addr(std::size_t stream_idx, std::uint32_t bytes);
  [[nodiscard]] RegId pick_source(bool fp);
  [[nodiscard]] RegId pick_dest(bool fp);

  const WorkloadProfile profile_;
  Xoshiro256 rng_;
  std::vector<StreamState> streams_;
  std::vector<double> stream_cdf_;
  // Fixed by the profile, computed once.
  double mem_frac_ = 0.0;    ///< load_frac + store_frac
  double load_share_ = 0.0;  ///< of memory ops, the share that are loads
  /// Xoshiro256::chance_threshold(1 / dep_mean) when dep_mean > 1.
  std::uint64_t dep_threshold_ = 0;

  // Loop state machine for the control stream.
  Addr pc_ = 0x00400000;
  Addr loop_start_pc_ = 0;
  std::uint64_t loop_body_left_ = 0;
  std::uint64_t loop_iters_left_ = 0;
  std::uint64_t loop_body_len_ = 0;

  // Recent destination registers, for dependency-distance sampling.
  RecentRing recent_int_;
  RecentRing recent_fp_;

  /// Oracle memory: program-order stores, read back for load values.
  SparseMemory oracle_;
};

/// Region base addresses handed to streams, spaced far apart so streams
/// never alias. Bases are line-aligned but *staggered* by 37 lines per
/// stream so that two power-of-two-strided streams map to different
/// DistribLSQ banks (64 MiB-aligned bases would all collide on bank 0).
[[nodiscard]] constexpr Addr stream_region_base(std::size_t i) noexcept {
  return 0x10000000ULL + static_cast<Addr>(i) * (0x04000000ULL + 37 * 32);
}

}  // namespace samie::trace
