#include "src/sim/process_executor.h"

#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <thread>

#include "src/core/core.h"
#include "src/sim/checkpoint.h"  // serialize_sim_result / parse_sim_result
#include "src/sim/proc_frame.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_io.h"

namespace samie::sim {

namespace {

// -- child side --------------------------------------------------------------

/// Cooperative cancel token: the SIGTERM handler flips it, the core's
/// cycle loop polls it, and the child unwinds into an "aborted" frame.
std::atomic<bool> g_cancel{false};

/// Crash pipe write end, opened before the handlers are installed so
/// the handler itself never opens anything.
int g_crash_fd = -1;

extern "C" void sigterm_handler(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

/// Async-signal-safe by construction: plain stores into a stack
/// CrashWire, backtrace() (primed at install time so its lazy libgcc
/// init already happened), one write(2), then re-raise with the default
/// disposition so the parent's waitpid sees the real signal.
extern "C" void crash_handler(int sig, siginfo_t* si, void*) {
  CrashWire w;
  w.signal = sig;
  w.fault_addr =
      si != nullptr ? reinterpret_cast<std::uint64_t>(si->si_addr) : 0;
  void* frames[kCrashMaxFrames];
  int n = ::backtrace(frames, kCrashMaxFrames);
  if (n < 0) n = 0;
  if (n > kCrashMaxFrames) n = kCrashMaxFrames;
  w.nframes = n;
  for (int i = 0; i < n; ++i) {
    w.frames[i] = reinterpret_cast<std::uint64_t>(frames[i]);
  }
  if (g_crash_fd >= 0) {
    const char* p = reinterpret_cast<const char*>(&w);
    std::size_t left = sizeof w;
    while (left > 0) {
      const ssize_t r = ::write(g_crash_fd, p, left);
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        break;
      }
      p += r;
      left -= static_cast<std::size_t>(r);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void install_child_handlers(int crash_fd) {
  g_crash_fd = crash_fd;
  // Prime backtrace's one-time unwinder setup outside the handler.
  void* prime[2];
  (void)::backtrace(prime, 2);
  // Alternate stack so a stack-overflow SIGSEGV still gets a record.
  // (SIGSTKSZ stopped being a compile-time constant in glibc 2.34.)
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof alt_stack;
  (void)::sigaltstack(&ss, nullptr);
  struct sigaction sa{};
  sa.sa_sigaction = crash_handler;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    (void)::sigaction(sig, &sa, nullptr);
  }
  struct sigaction term{};
  term.sa_handler = sigterm_handler;
  sigemptyset(&term.sa_mask);
  (void)::sigaction(SIGTERM, &term, nullptr);
}

void apply_limits(const ChildLimits& lim) {
  if (lim.mem_mb != 0) {
    rlimit rl{};
    rl.rlim_cur = rl.rlim_max = lim.mem_mb << 20;
    (void)::setrlimit(RLIMIT_AS, &rl);
  }
  if (lim.cpu_s != 0) {
    rlimit rl{};
    // Soft limit delivers SIGXCPU (the fate the parent decodes); the
    // hard limit sits a little above as the SIGKILL backstop — with
    // soft == hard Linux goes straight to SIGKILL.
    rl.rlim_cur = lim.cpu_s;
    rl.rlim_max = lim.cpu_s + 2;
    (void)::setrlimit(RLIMIT_CPU, &rl);
  }
}

[[nodiscard]] bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

[[nodiscard]] std::string error_payload(const char* cls,
                                        const std::string& what) {
  return std::string(cls) + '\x1f' + what;
}

/// Executes an isolation-only (or generic) injected fault inside the
/// child. kCrash/kOom/kSpin deliberately take the process down — the
/// whole point is proving the parent contains them.
void run_child_fault(const SweepFault& f) {
  switch (f.kind) {
    case SweepFault::Kind::kThrowTransient:
      throw TransientFault("injected transient fault (job " +
                           std::to_string(f.job) + ", attempt " +
                           std::to_string(f.attempt) + ")");
    case SweepFault::Kind::kThrowDeterministic:
      throw std::logic_error("injected deterministic fault (job " +
                             std::to_string(f.job) + ", attempt " +
                             std::to_string(f.attempt) + ")");
    case SweepFault::Kind::kDelay:
      std::this_thread::sleep_for(f.delay);
      break;
    case SweepFault::Kind::kSpuriousWake:
      break;  // no supervisor thread exists in isolate mode
    case SweepFault::Kind::kCrash: {
      // Poisoned, non-null address so the forensics record carries a
      // recognizable si_addr. The volatile reload of the address keeps
      // the compiler from proving (and flagging) the bad store.
      volatile std::uintptr_t addr = 0x2a;
      volatile int* poison = reinterpret_cast<volatile int*>(addr);
      *poison = 1;
      break;
    }
    case SweepFault::Kind::kOom: {
      // Allocation bomb: 8 MiB chunks, touched so overcommit cannot
      // defer the failure, until the RLIMIT_AS jail throws bad_alloc.
      std::vector<std::unique_ptr<char[]>> bomb;
      constexpr std::size_t kChunk = 8u << 20;
      for (;;) {
        bomb.push_back(std::make_unique<char[]>(kChunk));
        std::memset(bomb.back().get(), 0xab, kChunk);
      }
    }
    case SweepFault::Kind::kSpin:
      // Ignores the cancel token on purpose: only the parent's
      // SIGKILL (or the RLIMIT_CPU jail) can end this.
      for (volatile std::uint64_t n = 0;;) n = n + 1;
    case SweepFault::Kind::kTornFrame:
      break;  // handled in child_main (needs the result fd)
    case SweepFault::Kind::kShortRead:
    case SweepFault::Kind::kBitFlipBlock:
    case SweepFault::Kind::kEnospcOnImport:
    case SweepFault::Kind::kTornImport:
      break;  // I/O kinds: the pre-run hook consumed them before the fork
  }
}

[[noreturn]] void child_main(const SimConfig& cfg_in, trace::TraceView trace,
                             const SweepFault* fault, const ChildLimits& lim,
                             int result_fd, int crash_fd) {
  install_child_handlers(crash_fd);
  apply_limits(lim);
  FrameKind kind = FrameKind::kError;
  std::string payload;
  try {
    if (fault != nullptr && fault->kind == SweepFault::Kind::kTornFrame) {
      // Simulate a child dying mid-write: half a valid frame, clean exit.
      const std::string full =
          encode_frame(FrameKind::kResult, std::string(64, 'x'));
      (void)write_all(result_fd, full.data(), full.size() / 2);
      ::_exit(0);
    }
    if (fault != nullptr) run_child_fault(*fault);
    SimConfig cfg = cfg_in;
    cfg.core.should_abort = &g_cancel;
    const SimResult r = run_simulation(cfg, trace);
    kind = FrameKind::kResult;
    payload = serialize_sim_result(r);
  } catch (const core::SimulationAborted& e) {
    payload = error_payload(kErrAborted, e.what());
  } catch (const TransientFault& e) {
    payload = error_payload(kErrTransient, e.what());
  } catch (const trace::TraceFormatError& e) {
    payload = error_payload(kErrTransient, e.what());
  } catch (const std::bad_alloc&) {
    payload =
        lim.mem_mb != 0
            ? error_payload(kErrResource,
                            "allocation failed inside the RLIMIT_AS jail (" +
                                std::to_string(lim.mem_mb) + " MiB)")
            : error_payload(kErrTransient, "std::bad_alloc");
  } catch (const std::exception& e) {
    payload = error_payload(kErrDeterministic, e.what());
  } catch (...) {
    payload = error_payload(kErrDeterministic, "non-standard exception");
  }
  const std::string frame = encode_frame(kind, payload);
  // _exit, never exit: the child must not run the parent's atexit
  // handlers or flush its copies of the parent's stdio buffers.
  ::_exit(write_all(result_fd, frame.data(), frame.size()) ? 0 : 121);
}

// -- parent side -------------------------------------------------------------

/// Drains a pipe to EOF. Only called after the child is reaped, so the
/// write end is gone and this never blocks indefinitely. Capped well
/// above kFrameMaxPayload; a corrupt frame length cannot balloon this.
[[nodiscard]] std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  while (out.size() < kFrameMaxPayload + 64 * 1024) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  return out;
}

[[nodiscard]] std::string hex_addr(std::uint64_t a) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, a);
  return buf;
}

/// Symbolizes the CrashWire addresses. fork() without exec means the
/// child shared our mappings, so backtrace_symbols on *our* side
/// resolves the child's frames. Tabs/newlines are scrubbed so frames
/// survive the journal and report grammars.
[[nodiscard]] CrashRecord decode_crash(const std::string& bytes,
                                       int fallback_signal) {
  CrashRecord rec;
  rec.signal = fallback_signal;
  const std::optional<CrashWire> w = decode_crash_wire(bytes);
  if (!w) return rec;
  if (w->signal != 0) rec.signal = w->signal;
  rec.fault_addr = w->fault_addr;
  std::vector<void*> addrs(static_cast<std::size_t>(w->nframes));
  for (int i = 0; i < w->nframes; ++i) {
    addrs[static_cast<std::size_t>(i)] =
        reinterpret_cast<void*>(w->frames[i]);
  }
  char** syms = addrs.empty()
                    ? nullptr
                    : ::backtrace_symbols(addrs.data(),
                                          static_cast<int>(addrs.size()));
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    std::string frame = syms != nullptr && syms[i] != nullptr
                            ? syms[i]
                            : hex_addr(w->frames[i]);
    for (char& c : frame) {
      if (c == '\t' || c == '\n' || c == '\r') c = ' ';
    }
    rec.frames.push_back(std::move(frame));
  }
  std::free(syms);
  return rec;
}

}  // namespace

ProcessExecutor::~ProcessExecutor() {
  for (Child& ch : children_) {
    (void)::kill(ch.pid, SIGKILL);
    int status = 0;
    while (::waitpid(ch.pid, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(ch.result_fd);
    ::close(ch.crash_fd);
  }
}

void ProcessExecutor::spawn(std::uint64_t key, const SimConfig& cfg,
                            trace::TraceView trace, const SweepFault* fault,
                            const ChildLimits& limits) {
  int result_fds[2] = {-1, -1};
  int crash_fds[2] = {-1, -1};
  if (::pipe(result_fds) != 0) {
    throw TransientFault(std::string("pipe failed: ") + std::strerror(errno));
  }
  if (::pipe(crash_fds) != 0) {
    const int e = errno;
    ::close(result_fds[0]);
    ::close(result_fds[1]);
    throw TransientFault(std::string("pipe failed: ") + std::strerror(e));
  }
  // The child shares our stdio buffers; flush so it cannot re-emit them.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int e = errno;
    for (int fd : {result_fds[0], result_fds[1], crash_fds[0], crash_fds[1]}) {
      ::close(fd);
    }
    throw TransientFault(std::string("fork failed: ") + std::strerror(e));
  }
  if (pid == 0) {
    ::close(result_fds[0]);
    ::close(crash_fds[0]);
    child_main(cfg, trace, fault, limits, result_fds[1], crash_fds[1]);
  }
  // Close the write ends immediately: EOF on the read ends must mean
  // "this child is done", even with later children inheriting our fds.
  ::close(result_fds[1]);
  ::close(crash_fds[1]);
  Child ch;
  ch.key = key;
  ch.pid = pid;
  ch.result_fd = result_fds[0];
  ch.crash_fd = crash_fds[0];
  children_.push_back(ch);
}

std::optional<ProcessExecutor::Event> ProcessExecutor::poll() {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    Child& ch = children_[i];
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(ch.pid, &status, WNOHANG);
    } while (r < 0 && errno == EINTR);
    if (r == 0) continue;
    Event ev = decode_fate(ch, r < 0 ? -1 : status);
    ::close(ch.result_fd);
    ::close(ch.crash_fd);
    children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(i));
    return ev;
  }
  return std::nullopt;
}

void ProcessExecutor::term(std::uint64_t key) noexcept {
  for (Child& ch : children_) {
    if (ch.key == key && !ch.sent_term) {
      ch.sent_term = true;
      (void)::kill(ch.pid, SIGTERM);
    }
  }
}

void ProcessExecutor::kill(std::uint64_t key) noexcept {
  for (Child& ch : children_) {
    if (ch.key == key && !ch.sent_kill) {
      ch.sent_kill = true;
      (void)::kill(ch.pid, SIGKILL);
    }
  }
}

ProcessExecutor::Event ProcessExecutor::decode_fate(const Child& ch,
                                                    int status) {
  Event ev;
  ev.key = ch.key;
  // The child is reaped: both pipes drain to EOF without blocking.
  const std::string frame_bytes = read_all(ch.result_fd);
  const std::string crash_bytes = read_all(ch.crash_fd);
  if (status < 0) {
    ev.fate = FateKind::kBadExit;
    ev.what = "waitpid failed for the child";
    return ev;
  }
  if (WIFSIGNALED(status)) {
    ev.signal = WTERMSIG(status);
    if ((ev.signal == SIGTERM && ch.sent_term) ||
        (ev.signal == SIGKILL && ch.sent_kill)) {
      ev.fate = FateKind::kKilled;
      ev.what = ev.signal == SIGKILL
                    ? "hard-killed (SIGKILL) after the SIGTERM grace expired"
                    : "terminated (SIGTERM) at the deadline";
      return ev;
    }
    if (ev.signal == SIGXCPU) {
      ev.fate = FateKind::kResourceExceeded;
      ev.what = "RLIMIT_CPU exceeded (SIGXCPU)";
      return ev;
    }
    if (ev.signal == SIGKILL) {
      // We did not send it and no rlimit delivers SIGKILL: almost
      // certainly the kernel OOM killer.
      ev.fate = FateKind::kResourceExceeded;
      ev.what = "killed (SIGKILL not sent by the supervisor — likely the "
                "kernel OOM killer)";
      return ev;
    }
    ev.fate = FateKind::kCrashed;
    ev.crash = decode_crash(crash_bytes, ev.signal);
    ev.what = "child crashed with " + signal_name(ev.signal);
    if (ev.crash.fault_addr != 0) {
      ev.what += " at " + hex_addr(ev.crash.fault_addr);
    }
    return ev;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  ev.exit_code = code;
  if (code != 0) {
    ev.fate = FateKind::kBadExit;
    ev.what = "child exited with code " + std::to_string(code) +
              " without a usable result";
    return ev;
  }
  const std::optional<DecodedFrame> frame = decode_frame(frame_bytes);
  if (!frame) {
    ev.fate = FateKind::kBadFrame;
    ev.what = "truncated or corrupt result frame (" +
              std::to_string(frame_bytes.size()) + " bytes)";
    return ev;
  }
  if (frame->kind == FrameKind::kResult) {
    if (!parse_sim_result(frame->payload, ev.result)) {
      ev.fate = FateKind::kBadFrame;
      ev.what = "result frame payload failed to parse";
      return ev;
    }
    ev.fate = FateKind::kResult;
    return ev;
  }
  const std::size_t sep = frame->payload.find('\x1f');
  if (sep == std::string::npos) {
    ev.fate = FateKind::kBadFrame;
    ev.what = "error frame payload missing its class separator";
    return ev;
  }
  ev.fate = FateKind::kError;
  ev.error_class = frame->payload.substr(0, sep);
  ev.what = frame->payload.substr(sep + 1);
  return ev;
}

}  // namespace samie::sim
