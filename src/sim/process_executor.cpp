#include "src/sim/process_executor.h"

#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/sim/proc_frame.h"

namespace samie::sim {

namespace {

/// Sanity cap on what the parent reads from either pipe: a child's
/// answer is one journal-sized line (~1 KB) and a crash record 280
/// bytes, so anything near this is a runaway writer.
constexpr std::size_t kMaxReadBytes = 1u << 20;

// -- child side --------------------------------------------------------------

/// Crash pipe write end, opened before the handlers are installed so
/// the handler itself never opens anything.
int g_crash_fd = -1;

/// Async-signal-safe: write(2) and errno only.
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
    (void)write_all(g_crash_fd, reinterpret_cast<const char*>(&w), sizeof w);
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

[[noreturn]] void child_main(const ProcessExecutor::Work& work,
                             const ChildLimits& lim, int answer_fd,
                             int crash_fd) {
  install_child_handlers(crash_fd);
  apply_limits(lim);
  std::string answer;
  try {
    answer = work();
  } catch (...) {
    // Never unwind out of the child: the frames above are the parent's
    // scheduler, which must run in one process only.
    ::_exit(120);
  }
  // _exit, never exit: the child must not run the parent's atexit
  // handlers or flush its copies of the parent's stdio buffers.
  ::_exit(write_all(answer_fd, answer.data(), answer.size()) ? 0 : 121);
}

// -- parent side -------------------------------------------------------------

/// Drains a pipe to EOF. Only called after the child is reaped, so the
/// write end is gone and this never blocks indefinitely.
[[nodiscard]] std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  while (out.size() < kMaxReadBytes) {
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
    ::close(ch.answer_fd);
    ::close(ch.crash_fd);
  }
}

void ProcessExecutor::spawn(std::uint64_t key, const Work& work,
                            const ChildLimits& limits) {
  int answer_fds[2] = {-1, -1};
  int crash_fds[2] = {-1, -1};
  if (::pipe(answer_fds) != 0) {
    throw TransientFault(std::string("pipe failed: ") + std::strerror(errno));
  }
  if (::pipe(crash_fds) != 0) {
    const int e = errno;
    ::close(answer_fds[0]);
    ::close(answer_fds[1]);
    throw TransientFault(std::string("pipe failed: ") + std::strerror(e));
  }
  // The child shares our stdio buffers; flush so it cannot re-emit them.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int e = errno;
    for (int fd : {answer_fds[0], answer_fds[1], crash_fds[0], crash_fds[1]}) {
      ::close(fd);
    }
    throw TransientFault(std::string("fork failed: ") + std::strerror(e));
  }
  if (pid == 0) {
    ::close(answer_fds[0]);
    ::close(crash_fds[0]);
    child_main(work, limits, answer_fds[1], crash_fds[1]);
  }
  // Close the write ends immediately: EOF on the read ends must mean
  // "this child is done", even with later children inheriting our fds.
  ::close(answer_fds[1]);
  ::close(crash_fds[1]);
  Child ch;
  ch.key = key;
  ch.pid = pid;
  ch.answer_fd = answer_fds[0];
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
    ::close(ch.answer_fd);
    ::close(ch.crash_fd);
    children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(i));
    return ev;
  }
  return std::nullopt;
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
  std::string answer = read_all(ch.answer_fd);
  const std::string crash_bytes = read_all(ch.crash_fd);
  if (status < 0) {
    ev.fate = FateKind::kBadExit;
    ev.what = "waitpid failed for the child";
    return ev;
  }
  if (WIFSIGNALED(status)) {
    ev.signal = WTERMSIG(status);
    // The supervisor sends no SIGTERM, SIGINT or SIGHUP, so one came from
    // outside (an operator, a shutdown, a closed terminal): the work was
    // healthy, and a resume must re-run it rather than quarantine it as
    // a crash.
    if (ev.signal == SIGTERM || ev.signal == SIGINT || ev.signal == SIGHUP ||
        (ev.signal == SIGKILL && ch.sent_kill)) {
      ev.fate = FateKind::kKilled;
      ev.what = ev.signal == SIGKILL
                    ? "hard-killed (SIGKILL): still running a grace period "
                      "past its deadline"
                    : "terminated (" + signal_name(ev.signal) +
                          " not sent by the supervisor)";
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
  if (code != 0) {
    ev.fate = FateKind::kBadExit;
    ev.what = "child exited with code " + std::to_string(code) +
              " without a usable result";
    return ev;
  }
  ev.fate = FateKind::kAnswered;
  ev.answer = std::move(answer);
  return ev;
}

}  // namespace samie::sim
