// Process-isolated job execution: fork a child per job, jail it with
// rlimits, and hand back what the child answered down its pipe.
//
// This is the containment layer under `samie_sim --isolate` /
// SweepOptions::isolate_procs. The in-thread runner survives
// anything a job can *throw*; this one survives anything a job can *do
// to the process* — SIGSEGV, a glibc abort, an allocation bomb, a
// runaway loop that never reaches its deadline check. The
// child is fork() without exec: it inherits the parent's memory (the
// work it is handed reads what the parent prepared, and crash backtrace
// addresses symbolize in the parent), runs that work, writes the bytes
// the work returns, and _exit()s. The executor never reads those bytes:
// the sweep scheduler, its only client, hands each child the same
// attempt body its in-thread workers run and decodes the one guarded
// line (src/sim/checkpoint.h) the child answers with.
//
// Child lifecycle:
//   1. install async-signal-safe crash handlers (SIGSEGV/SIGBUS/SIGILL/
//      SIGFPE/SIGABRT) writing a CrashWire record to a pre-opened pipe
//   2. apply ChildLimits (RLIMIT_AS / RLIMIT_CPU)
//   3. run the work (the sweep's attempt body, which stops itself at its
//      deadline)
//   4. write the work's answer, _exit(0)
//
// The parent polls children with waitpid(WNOHANG) and decodes each fate
// into an Event; policy (retry, quarantine, outcome taxonomy) stays in
// the sweep scheduler. ProcessExecutor itself is single-threaded and
// must only be used from a single-threaded parent: fork() in a
// multi-threaded process clones only the calling thread, so a child
// forked while another thread holds (say) the malloc lock can deadlock.
// The sweep scheduler guarantees this: its forked-child runner starts
// no thread.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/sweep_scheduler.h"

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
    kAnswered,          ///< exit 0: `answer` holds what the child wrote
    kCrashed,           ///< fatal signal not sent by us (SIGSEGV, ...)
    kResourceExceeded,  ///< SIGXCPU, or a SIGKILL we did not send (OOM killer)
    kKilled,            ///< our deadline SIGKILL, or a SIGTERM from anyone
    kBadExit,           ///< nonzero exit: the child's answer is not usable
  };

  struct Event {
    std::uint64_t key = 0;
    FateKind fate = FateKind::kBadExit;
    std::string answer;  ///< kAnswered only: every byte the child wrote
    std::string what;    ///< human-readable fate description
    int signal = 0;      ///< terminating signal, if any
    CrashRecord crash;   ///< kCrashed only, best effort
  };

  /// A child's work: runs inside the child and returns the bytes the
  /// child answers with. A work that throws ends its child with exit
  /// code 120 and no answer.
  using Work = std::function<std::string()>;

  ProcessExecutor() = default;
  ProcessExecutor(const ProcessExecutor&) = delete;
  ProcessExecutor& operator=(const ProcessExecutor&) = delete;
  /// SIGKILLs and reaps any children still alive (abnormal unwind only —
  /// the scheduler drains via poll()).
  ~ProcessExecutor();

  /// Forks one child for `key` that runs `work` under `limits`. Whatever
  /// the work reads must stay alive in the parent until the child's Event
  /// is returned: the child reads it from the memory it inherits. Throws
  /// TransientFault when pipe(2) or fork(2) fail (EAGAIN/ENOMEM are load
  /// conditions — the scheduler retries with backoff).
  void spawn(std::uint64_t key, const Work& work, const ChildLimits& limits);

  /// Reaps at most one exited child (non-blocking) and decodes its fate.
  /// Returns nullopt when every child is still running.
  [[nodiscard]] std::optional<Event> poll();

  /// SIGKILLs the child for `key`: the scheduler's last resort for one
  /// still alive a grace period after its deadline, spinning where the
  /// work's own deadline check never runs.
  void kill(std::uint64_t key) noexcept;

 private:
  struct Child {
    std::uint64_t key = 0;
    pid_t pid = -1;
    int answer_fd = -1;  ///< read end of the answer pipe
    int crash_fd = -1;   ///< read end of the crash-forensics pipe
    bool sent_kill = false;
  };

  [[nodiscard]] Event decode_fate(const Child& ch, int status);

  std::vector<Child> children_;
};

}  // namespace samie::sim
