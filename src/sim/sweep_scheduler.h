// Supervised sweep scheduler: runs (config, trace) jobs through one job
// lifecycle where a failing job is an *outcome*, not a poison pill.
//
// The fail-fast pool this replaces (run_jobs pre-PR 6) parked the first
// exception, stopped handing out work and rethrew after join — one
// malformed trace discarded every completed result with no partial
// output, no retry and no way to resume. Here every job ends in a
// structured JobOutcome:
//
//   Completed — result is valid (run live, or loaded from a checkpoint)
//   Failed    — all attempts exhausted; carries the failure class,
//               error text and the exception for programmatic rethrow
//   TimedOut  — the per-job wall-clock deadline fired; the core observed
//               the cooperative cancellation token and unwound (or, under
//               process isolation, the parent hard-killed the child after
//               the SIGTERM grace expired)
//   Skipped   — never attempted (the sweep drained after max_failures)
//   Crashed   — process isolation only: the child died on a fatal signal
//               (SIGSEGV/SIGBUS/SIGABRT/...); deterministic by
//               definition, quarantined in the checkpoint journal so a
//               resume skips the known-poison job, and carries a crash
//               forensics record when the child's handler got one out
//   ResourceExceeded — process isolation only: the child hit its
//               resource jail (RLIMIT_AS allocation failure, RLIMIT_CPU
//               SIGXCPU, or a kernel OOM kill)
//   TraceDamaged — the job's trace file failed its guards when the job
//               decoded it (trace::TraceCorruptError: torn tail,
//               interior corruption or a bad index). Deterministic by
//               definition — the bytes on disk don't heal on retry — so
//               the job is journaled with a 'D' record and a resume
//               seals it instead of re-running it. Every job decodes its
//               whole file, so damage anywhere in a file quarantines
//               every job over that file; jobs over other files complete
//               normally with bit-identical results.
//
// Failures are classified transient (bad_alloc, TraceFormatError — e.g.
// a trace still being written or an I/O flake — and the fault-injection
// TransientFault) or deterministic (logic_error, watchdog throws,
// everything else). Transient failures retry up to RetryPolicy::
// max_attempts with capped exponential backoff — the retry waits on the
// sweep's due-time queue, never on a worker, which takes the next ready
// job meanwhile; deterministic ones fail immediately. Two runners drive
// the lifecycle: in-thread workers (SweepOptions::threads) and forked
// children (SweepOptions::isolate_procs). In-thread deadlines are
// cooperative: a supervisor thread sets a per-job atomic token when the
// deadline passes, and the core's cycle loop polls it on stepped cycles
// (off the fast-forward path — statistics stay bit-identical whether or
// not a token is wired).
//
// Completed jobs are journaled incrementally to a crash-safe checkpoint
// (src/sim/checkpoint.h) so an interrupted sweep resumes with
// SweepOptions::resume, skipping finished jobs and reproducing their
// results bit-identically. SweepFaultPlan injects throws, delays and
// spurious supervisor wake-ups at (job, attempt) for the deterministic
// fault-injection tests and the CI job that drives them.
//
// Taxonomy, policies and file format: docs/SWEEP_ROBUSTNESS.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "src/trace/trace_io.h"

namespace samie::sim {

/// A retryable failure by definition — thrown by the fault-injection
/// hook, and available to external job code that knows its error is
/// transient (e.g. an NFS open that flaked).
class TransientFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class JobStatus : std::uint8_t {
  kCompleted,
  kFailed,
  kTimedOut,
  kSkipped,
  kCrashed,           ///< child died on a fatal signal (isolation only)
  kResourceExceeded,  ///< child hit its rlimit jail (isolation only)
  kTraceDamaged,      ///< the job's trace file failed its guards
};
[[nodiscard]] const char* job_status_name(JobStatus s) noexcept;

/// Human-readable name for a child-terminating signal ("SIGSEGV", ...;
/// "SIG<n>" for anything unnamed).
[[nodiscard]] std::string signal_name(int sig);

enum class FailureClass : std::uint8_t { kNone, kTransient, kDeterministic };
[[nodiscard]] const char* failure_class_name(FailureClass c) noexcept;

/// Classifies a caught job failure. Transient: TransientFault,
/// std::bad_alloc, trace::TraceFormatError (a trace mid-write or an I/O
/// flake deserves a retry). trace::TraceCorruptError — structurally
/// *verified* damage behind an intact header, guard-checked — is
/// deterministic: the bytes on disk don't heal, so retrying replays the
/// same read. Everything else — logic_error, the commit watchdog's
/// runtime_error — is deterministic too: retrying replays the same
/// wedge.
[[nodiscard]] FailureClass classify_failure(const std::exception_ptr& error);

/// Crash forensics captured by the isolated child's async-signal-safe
/// handler: the signal, the faulting address (siginfo_t::si_addr) and a
/// raw backtrace, symbolized best-effort by the parent (fork without
/// exec shares the parent's mappings, so the addresses resolve).
struct CrashRecord {
  int signal = 0;
  std::uint64_t fault_addr = 0;
  std::vector<std::string> frames;  ///< innermost first, "0xADDR symbol"
  [[nodiscard]] bool present() const noexcept { return signal != 0; }
};

struct JobOutcome {
  JobStatus status = JobStatus::kSkipped;
  FailureClass failure = FailureClass::kNone;  ///< kNone unless Failed/Crashed/ResourceExceeded
  std::string what;                ///< final error text (Failed/TimedOut)
  std::uint32_t attempts = 0;      ///< attempts actually started
  double wall_seconds = 0.0;       ///< wall clock across all attempts
  bool from_checkpoint = false;    ///< Completed/Crashed/TraceDamaged via resume
  int term_signal = 0;             ///< signal that ended the child, if any
  CrashRecord crash;               ///< forensics (Crashed only)
  // -- TraceDamaged only ------------------------------------------------------
  trace::TraceDamage damage = trace::TraceDamage::kNone;  ///< damage kind
  std::uint64_t damage_block = trace::TraceCorruptError::kNoBlock;
  std::uint64_t damage_offset = 0;  ///< byte offset of the damage
};

/// One job's slot in the sweep report. `result` is meaningful only when
/// `completed()` — a non-completed job's slot is never a fabricated
/// zero-stat row, because the outcome says explicitly what happened.
struct SweepJobResult {
  Job job;
  SimResult result;
  JobOutcome outcome;
  std::exception_ptr error;  ///< final failure, for programmatic rethrow

  [[nodiscard]] bool completed() const noexcept {
    return outcome.status == JobStatus::kCompleted;
  }
};

struct RetryPolicy {
  /// Total attempts for transiently-failing jobs (1 = no retry).
  std::uint32_t max_attempts = 3;
  std::chrono::milliseconds backoff_base{10};
  std::chrono::milliseconds backoff_cap{500};

  /// Backoff before attempt `next_attempt` (2-based): base doubled per
  /// prior failure, capped.
  [[nodiscard]] std::chrono::milliseconds backoff_for(
      std::uint32_t next_attempt) const noexcept {
    std::chrono::milliseconds d = backoff_base;
    for (std::uint32_t i = 2; i < next_attempt && d < backoff_cap; ++i) d += d;
    return std::min(d, backoff_cap);
  }
};

/// Deterministic fault injection for the robustness test suite and the
/// CI fault-injection job: when the worker reaches (job, attempt) it
/// performs the fault before running the simulation.
struct SweepFault {
  enum class Kind : std::uint8_t {
    kThrowTransient,      ///< throw TransientFault (retried)
    kThrowDeterministic,  ///< throw std::logic_error (not retried)
    kDelay,               ///< sleep `delay` first (drives deadline tests)
    kSpuriousWake,        ///< wake the deadline supervisor for no reason
    // The kinds below run inside a forked child and are rejected by
    // the in-thread runner (they would take the whole sweep down —
    // which is exactly the failure mode isolation exists to contain).
    kCrash,      ///< dereference a poisoned pointer (SIGSEGV + forensics)
    kOom,        ///< allocation bomb into the RLIMIT_AS jail
    kSpin,       ///< busy loop that ignores the cancel token (hard kill)
    kTornFrame,  ///< write a truncated result frame, then exit 0
    // I/O fault kinds: armed on the job's trace path via
    // trace::set_io_fault right before the attempt acquires its trace,
    // consumed by the next open of that path (trace_io.h). They drive
    // the trace-corruption quarantine tests without touching the bytes
    // on disk.
    kShortRead,      ///< hide the last `param` bytes (0 = 64) of the file
    kBitFlipBlock,   ///< flip one payload bit of v2 block `param` in memory
    // Import-only kinds (consumed by TraceWriterV2::finish, not by a
    // read): rejected by run_sweep — a sweep replays traces, it never
    // imports one. samie_sim --import-trace arms them directly.
    kEnospcOnImport,  ///< importer finalize fails as if the disk filled
    kTornImport,      ///< importer dies mid-block, torn tmp left behind
  };

  /// True for kinds that only make sense inside an isolated child.
  [[nodiscard]] static constexpr bool needs_isolation(Kind k) noexcept {
    return k == Kind::kCrash || k == Kind::kOom || k == Kind::kSpin ||
           k == Kind::kTornFrame;
  }
  /// True for kinds that arm a trace::set_io_fault on the job's trace
  /// path instead of acting inside the runner.
  [[nodiscard]] static constexpr bool is_io_fault(Kind k) noexcept {
    return k == Kind::kShortRead || k == Kind::kBitFlipBlock ||
           k == Kind::kEnospcOnImport || k == Kind::kTornImport;
  }
  /// True for I/O kinds only a trace *import* can consume.
  [[nodiscard]] static constexpr bool import_only(Kind k) noexcept {
    return k == Kind::kEnospcOnImport || k == Kind::kTornImport;
  }
  std::size_t job = 0;
  std::uint32_t attempt = 1;  ///< 1-based attempt the fault fires on
  Kind kind = Kind::kThrowTransient;
  std::chrono::milliseconds delay{0};
  std::uint64_t param = 0;  ///< I/O kinds: cut bytes / block number
};

struct SweepFaultPlan {
  std::vector<SweepFault> faults;

  [[nodiscard]] const SweepFault* find(std::size_t job,
                                       std::uint32_t attempt) const noexcept {
    for (const SweepFault& f : faults) {
      if (f.job == job && f.attempt == attempt) return &f;
    }
    return nullptr;
  }
};

struct SweepOptions {
  /// In-thread runner's worker threads; 0 picks bench_threads().
  unsigned threads = 0;
  /// Forked-child runner: when nonzero, each attempt runs in a forked
  /// child under resource jails (src/sim/process_executor.h) with up to
  /// `isolate_procs` children alive at once — the only runner that
  /// survives a job that SIGSEGVs, aborts, or spins past the cooperative
  /// cancel check. Results come back over a guarded pipe frame and are
  /// bit-identical to the in-thread runner's. `threads` is ignored (the
  /// parent supervisor is single-threaded).
  unsigned isolate_procs = 0;
  /// RLIMIT_AS cap per child, in MiB (0 = no cap). The cap covers the
  /// whole child address space, inherited image included. Allocation
  /// failure inside the jail maps to ResourceExceeded.
  std::uint64_t job_mem_mb = 0;
  /// RLIMIT_CPU backstop per child, in seconds (0 = no cap). SIGXCPU
  /// maps to ResourceExceeded.
  std::uint64_t job_cpu_s = 0;
  /// Isolation only: grace between the deadline SIGTERM (cooperative —
  /// the child's handler flips its cancel token and it unwinds with its
  /// outcome intact) and the SIGKILL hard kill for children that ignore
  /// it. Both fates map to TimedOut.
  std::chrono::milliseconds kill_grace{500};
  RetryPolicy retry;
  /// Per-job wall-clock deadline; zero disables the supervisor.
  std::chrono::milliseconds job_deadline{0};
  /// Drain after this many jobs sealed without completing (0 = never):
  /// the queue stops starting fresh jobs, which then report Skipped.
  std::size_t max_failures = 0;
  /// Journal completed jobs here (empty = no checkpointing). With
  /// `resume`, an existing journal is validated against the job list
  /// and its finished jobs are not re-run.
  std::string checkpoint_path;
  bool resume = false;
  /// Borrowed; may be nullptr. Only the tests and CI set this.
  const SweepFaultPlan* faults = nullptr;
};

struct SweepReport {
  std::vector<SweepJobResult> jobs;  ///< one per input job, in job order
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  std::size_t skipped = 0;
  std::size_t crashed = 0;            ///< child died on a fatal signal
  std::size_t resource_exceeded = 0;  ///< child hit its rlimit jail
  std::size_t trace_damaged = 0;      ///< trace file failed its guards
  std::size_t resumed = 0;  ///< subset of `completed` loaded from journal
  /// Subset of `crashed` skipped on resume via a quarantine record.
  std::size_t quarantined = 0;
  /// Subset of `trace_damaged` sealed on resume via a 'D' record.
  std::size_t damage_sealed = 0;
  /// Torn checkpoint lines ignored on resume (a kill mid-append).
  std::size_t checkpoint_lines_ignored = 0;
  /// High-water mark of trace sources resident in the sweep's cache —
  /// the residency-release regression probe: with release-on-last-
  /// consumer working, this tracks the traces concurrently in flight
  /// (<= threads / isolate_procs, plus build overlap) and the traces
  /// later jobs still share, not every distinct trace the sweep touched.
  std::size_t trace_resident_high_water = 0;

  [[nodiscard]] bool all_completed() const noexcept {
    return completed == jobs.size();
  }
};

/// CLI exit code for a finished sweep: 0 = every job completed, 3 = the
/// sweep ran to completion but at least one job crashed, exceeded its
/// resource jail, or hit trace damage, 2 = partial for any other reason
/// (failed, timed out, skipped). (1 is reserved for usage/fatal errors
/// before any job ran.)
[[nodiscard]] int sweep_exit_code(const SweepReport& report) noexcept;

/// Runs the sweep. Never throws for per-job failures — those are
/// outcomes. Throws CheckpointError (bad/mismatched journal on resume)
/// and std::invalid_argument (unjournalable job names, an
/// isolation-only fault kind without `isolate_procs`, an oom fault
/// without a `job_mem_mb` jail, an import-only I/O fault kind, or an
/// I/O fault aimed at a job with no trace file) before any job has
/// started.
[[nodiscard]] SweepReport run_sweep(const std::vector<Job>& jobs,
                                    const SweepOptions& opt = {});

/// Binds a checkpoint to its sweep: FNV-1a over every job's identity
/// (program, tag, LSQ kind and geometry, workload length/seed/path), so
/// resuming against a different job list is refused instead of grafting
/// foreign results.
[[nodiscard]] std::uint64_t sweep_fingerprint(const std::vector<Job>& jobs);

/// The machine-readable failure report (consumed by CI): one
/// `sweep: job=I program=P tag=T outcome=... attempts=N wall=S [...]`
/// line per non-completed job, then a one-line summary. Prints only the
/// summary when everything completed.
void print_failure_report(std::ostream& os, const SweepReport& report);

}  // namespace samie::sim
