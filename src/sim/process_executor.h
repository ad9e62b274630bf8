// Process-isolated job execution: fork a child per job, jail it with
// rlimits, and read its SimResult back over a guarded pipe frame
// (src/sim/proc_frame.h).
//
// This is the containment layer under `samie_sim --isolate` /
// SweepOptions::isolate_procs. The in-thread runner survives
// anything a job can *throw*; this one survives anything a job can *do
// to the process* — SIGSEGV, a glibc abort, an allocation bomb, a
// runaway loop that never reaches the cooperative cancel check. The
// child is fork() without exec: it inherits the parent's memory (the
// trace's blocks stay readable, and crash backtrace addresses symbolize
// in the parent), runs exactly the run_simulation the in-thread runner
// runs, serializes the result through the same hexfloat text as the
// checkpoint journal, and _exit()s. That round trip is bit-exact, which
// is what makes isolated sweeps byte-identical to in-thread sweeps.
//
// Child lifecycle:
//   1. install async-signal-safe crash handlers (SIGSEGV/SIGBUS/SIGILL/
//      SIGFPE/SIGABRT) writing a CrashWire record to a pre-opened pipe,
//      and a SIGTERM handler that flips the cooperative cancel token
//   2. apply ChildLimits (RLIMIT_AS / RLIMIT_CPU)
//   3. run the injected fault, if any, then run_simulation
//   4. write one result or error frame, _exit(0)
//
// The parent polls children with waitpid(WNOHANG) and decodes each fate
// into an Event; policy (retry, quarantine, outcome taxonomy) stays in
// the sweep scheduler. ProcessExecutor itself is single-threaded and
// must only be used from a single-threaded parent: fork() in a
// multi-threaded process clones only the calling thread, so a child
// forked while another thread holds (say) the malloc lock can deadlock.
// The sweep scheduler guarantees this: its forked-child runner starts
// no thread, the deadline supervisor included.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/sweep_scheduler.h"

namespace samie::trace {
class TraceSource;
}  // namespace samie::trace

namespace samie::sim {

/// Per-child resource jail; 0 = unlimited.
struct ChildLimits {
  std::uint64_t mem_mb = 0;  ///< RLIMIT_AS, MiB (whole address space)
  std::uint64_t cpu_s = 0;   ///< RLIMIT_CPU, seconds
};

class ProcessExecutor {
 public:
  /// How a child ended, before sweep policy is applied.
  enum class FateKind : std::uint8_t {
    kResult,            ///< exit 0 with a valid result frame
    kError,             ///< exit 0 with a valid error frame (see error_class)
    kCrashed,           ///< fatal signal not sent by us (SIGSEGV, ...)
    kResourceExceeded,  ///< SIGXCPU, or a SIGKILL we did not send (OOM killer)
    kKilled,            ///< our own SIGTERM/SIGKILL landed (deadline path)
    kBadFrame,          ///< exit 0 but the result frame is torn or corrupt
    kBadExit,           ///< nonzero exit without a usable frame
  };

  struct Event {
    std::uint64_t key = 0;
    FateKind fate = FateKind::kBadExit;
    SimResult result;         ///< kResult only
    std::string error_class;  ///< kError only: a kErr* tag from proc_frame.h
    std::string what;         ///< human-readable fate description
    int signal = 0;           ///< terminating signal, if any
    int exit_code = 0;        ///< kBadExit only
    CrashRecord crash;        ///< kCrashed only, best effort
  };

  ProcessExecutor() = default;
  ProcessExecutor(const ProcessExecutor&) = delete;
  ProcessExecutor& operator=(const ProcessExecutor&) = delete;
  /// SIGKILLs and reaps any children still alive (abnormal unwind only —
  /// the scheduler drains via poll()).
  ~ProcessExecutor();

  /// Forks one child for `key`. The trace must stay alive in the parent
  /// until the child's Event is returned: the child decodes its blocks
  /// from the memory it inherits. `fault` may be nullptr; isolation-only
  /// fault kinds execute inside the child. Throws TransientFault when pipe(2)
  /// or fork(2) fail (EAGAIN/ENOMEM are load conditions — the scheduler
  /// retries with backoff).
  void spawn(std::uint64_t key, const SimConfig& cfg,
             const trace::TraceSource& trace, const SweepFault* fault,
             const ChildLimits& limits);

  [[nodiscard]] std::size_t active() const noexcept { return children_.size(); }

  /// Reaps at most one exited child (non-blocking) and decodes its fate.
  /// Returns nullopt when every child is still running.
  [[nodiscard]] std::optional<Event> poll();

  /// Deadline escalation: SIGTERM (the child's handler flips its cancel
  /// token and it unwinds into an "aborted" error frame), then — for
  /// children that ignore it — kill() after the grace period.
  void term(std::uint64_t key) noexcept;
  void kill(std::uint64_t key) noexcept;

 private:
  struct Child {
    std::uint64_t key = 0;
    pid_t pid = -1;
    int result_fd = -1;  ///< read end of the result-frame pipe
    int crash_fd = -1;   ///< read end of the crash-forensics pipe
    bool sent_term = false;
    bool sent_kill = false;
  };

  [[nodiscard]] Event decode_fate(const Child& ch, int status);

  std::vector<Child> children_;
};

}  // namespace samie::sim
