// Whole-simulation configuration: the paper's processor (Table 2),
// SAMIE-LSQ shape (Table 3) and the LSQ organization under test.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/core.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/mem/hierarchy.h"

namespace samie::sim {

enum class LsqChoice : std::uint8_t {
  kConventional,  ///< 128-entry fully-associative baseline
  kUnbounded,     ///< never-stalling reference (Figure 1 normalization)
  kArb,           ///< Franklin & Sohi banked baseline
  kSamie,         ///< the paper's contribution
};

[[nodiscard]] const char* lsq_choice_name(LsqChoice c) noexcept;

struct SimConfig {
  core::CoreConfig core;          ///< defaults == paper Table 2
  mem::HierarchyConfig memory;    ///< defaults == paper Table 2
  LsqChoice lsq = LsqChoice::kSamie;
  lsq::ConventionalLsqConfig conventional;  ///< 128 entries
  lsq::SamieConfig samie;                   ///< defaults == paper Table 3
  lsq::ArbConfig arb;
  /// Account energy with the paper's published constants (default) or
  /// with this repository's analytical surrogate model.
  bool paper_energy_constants = true;
  std::uint64_t instructions = 300'000;
  std::uint64_t seed = 42;
  /// When non-empty, the workload is the recorded SAMT trace at this path
  /// instead of a (profile, seed, length) triple; `instructions` then
  /// caps how much of the trace is replayed.
  std::string trace_path;
  /// Verify the v1 FNV-1a checksum when opening `trace_path` (one more
  /// pass over the record bytes; v2 block guards are always verified).
  /// `samie_sim --no-verify-checksum` clears it for re-opening an
  /// already-verified trace.
  bool verify_trace_checksum = true;
};

/// The paper's evaluation configuration with the given LSQ choice.
[[nodiscard]] SimConfig paper_config(LsqChoice lsq);

/// Number of instructions for bench binaries: the built-in default can be
/// scaled with the SAMIE_BENCH_INSTS environment variable.
[[nodiscard]] std::uint64_t bench_instructions(std::uint64_t fallback = 300'000);

/// Worker-thread count for suite runs; honours SAMIE_BENCH_THREADS.
[[nodiscard]] unsigned bench_threads();

}  // namespace samie::sim
