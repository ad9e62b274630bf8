// Hot-path performance harness: measures *simulator* throughput
// (simulated cycles per wall-clock second) for each LSQ organization over
// the SPEC2000 suite, excluding trace generation from the timed region.
//
// This is the repo's perf trajectory: `tools/perf_report` writes
// BENCH_hotpath.json (schema documented in docs/BENCH_hotpath.md) and
// `bench/bench_hotpath` prints the same measurement as a table and
// compares it against the checked-in pre-refactor baseline
// (bench/baseline_hotpath.json).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/sim/sim_config.h"
#include "src/sim/simulator.h"

namespace samie::sim {

/// One (LSQ, program) measurement. The *reported* wall time is the
/// minimum over `repeats` timed simulations — not a sum or mean — so
/// one descheduled repeat on a noisy host cannot inflate the program's
/// number (the minimum of a nonnegative-noise process is the best
/// estimator of the true cost). `wall_all` keeps every repeat, in run
/// order, for noise diagnosis. The SimResult is taken from the first
/// run and is deterministic (bit-identical across runs and refactors by
/// contract).
struct HotpathProgramResult {
  std::string program;
  double best_wall_seconds = 0.0;
  std::vector<double> wall_all;  ///< per-repeat walls (min == best)
  SimResult result;
};

struct HotpathLsqResult {
  LsqChoice lsq = LsqChoice::kSamie;
  std::vector<HotpathProgramResult> programs;
  std::uint64_t total_sim_cycles = 0;
  /// Engine metric: cycles the event-driven loop fast-forwarded over,
  /// summed over programs (0 under --no-skip). The per-program skip
  /// ratio is skipped / cycles.
  std::uint64_t total_skipped_cycles = 0;
  double total_wall_seconds = 0.0;  ///< sum of per-program best walls
  double sim_cycles_per_second = 0.0;
  /// Process peak RSS (VmHWM) after this LSQ's runs, in kB. Monotonic
  /// across the whole process: meaningful as "peak so far".
  std::uint64_t peak_rss_kb = 0;
};

struct HotpathReport {
  std::uint64_t instructions = 0;
  std::uint64_t seed = 0;
  std::uint32_t repeats = 0;
  /// The measurement ran the always-step loop (--no-skip): skip metrics
  /// are definitionally zero and consumers suppress them.
  bool no_skip = false;
  std::vector<HotpathLsqResult> lsqs;
  /// One "lsq=K program=P error=..." line per measurement that threw
  /// (e.g. a corrupt trace in --trace-dir). Failed programs are absent
  /// from their LSQ's `programs` and totals; empty = clean run.
  std::vector<std::string> failures;
  /// Measurements loaded from the resume journal instead of re-run.
  std::size_t resumed = 0;
};

struct HotpathOptions {
  std::uint64_t instructions = 200'000;
  std::uint64_t seed = 42;
  std::uint32_t repeats = 3;
  /// Empty = the whole SPEC2000 suite.
  std::vector<std::string> programs;
  /// LSQs to measure; empty = conventional, arb, samie.
  std::vector<LsqChoice> lsqs;
  /// When non-empty: sweep the *.samt traces in this directory (sorted by
  /// filename, replayed from disk) instead of generating `programs`. Program
  /// labels come from the SAMT headers; `instructions` and `seed` are
  /// ignored (each trace replays in full).
  std::string trace_dir;
  /// Run the always-step cycle loop (no quiescent-cycle fast-forward);
  /// the measured statistics are identical, only throughput and the
  /// skipped_cycles fields change.
  bool always_step = false;
  /// Checkpoint journal (src/sim/checkpoint.h): when non-empty, every
  /// finished (lsq, program) measurement — statistics *and* walls — is
  /// appended crash-safely, and an existing journal for the same
  /// configuration is loaded first so those measurements are not re-run.
  /// A journal written under a different configuration is refused
  /// (CheckpointError).
  std::string resume_path;
};

/// Share of `total` cycles that were fast-forwarded: skipped / total,
/// 0 when total is 0. One definition serves the JSON's skip_ratio, the
/// perf_report stdout line and bench_hotpath's table column.
[[nodiscard]] inline double skip_fraction(std::uint64_t skipped,
                                          std::uint64_t total) noexcept {
  return total == 0 ? 0.0
                    : static_cast<double>(skipped) / static_cast<double>(total);
}

/// Runs the measurement (single-threaded, deterministic job order).
[[nodiscard]] HotpathReport run_hotpath_measurement(const HotpathOptions& opt);

/// Serializes the report as BENCH_hotpath.json (schema v3). Simulation
/// statistics are printed with max_digits10, so comparing two reports
/// with the timing/engine fields (wall_seconds, total_wall_seconds,
/// sim_cycles_per_second, peak_rss_kb, skipped_cycles, skip_ratio,
/// total_skipped_cycles) filtered out checks bit-identical simulation
/// results; a raw byte diff will always differ on timing.
void write_hotpath_json(std::ostream& os, const HotpathReport& report);

/// Extracts `"sim_cycles_per_second": <x>` for the given LSQ tag from a
/// BENCH_hotpath.json document. The search is bounded to the tag's own
/// JSON object, so a section missing the key yields 0.0 instead of
/// silently reading the next section's value. Returns 0.0 when absent.
[[nodiscard]] double hotpath_cycles_per_second_from_json(
    const std::string& json_text, const std::string& lsq_tag);

/// One point of the PR-indexed perf trajectory
/// (bench/trajectory_hotpath.json, schema samie-bench-trajectory-v1):
/// sim_cycles_per_second per LSQ as measured back-to-back on one host.
struct TrajectoryEntry {
  std::string label;  ///< e.g. "PR1"
  double conventional = 0.0;
  double arb = 0.0;
  double samie = 0.0;
};

/// Parses the checked-in trajectory file's text. Entries missing a field
/// carry 0.0 there; malformed documents yield an empty vector.
[[nodiscard]] std::vector<TrajectoryEntry> parse_hotpath_trajectory(
    const std::string& json_text);

/// Current process peak RSS (VmHWM) in kB; 0 when /proc is unavailable.
[[nodiscard]] std::uint64_t peak_rss_kb();

}  // namespace samie::sim
