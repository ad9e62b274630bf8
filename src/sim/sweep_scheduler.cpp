#include "src/sim/sweep_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "src/core/core.h"
#include "src/sim/checkpoint.h"
#include "src/sim/proc_frame.h"
#include "src/sim/process_executor.h"
#include "src/sim/trace_cache.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"

namespace samie::sim {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Enforces per-job wall-clock deadlines by flipping each job's
/// cooperative cancellation token when its deadline passes. One thread
/// serves the whole pool: it sleeps until the earliest armed deadline
/// and rescans on every wake. Spurious wake-ups (which the fault plan
/// can inject) are harmless by construction — the loop recomputes the
/// earliest deadline from scratch each iteration and only fires tokens
/// whose deadline has genuinely passed.
class DeadlineSupervisor {
 public:
  explicit DeadlineSupervisor(unsigned slots) : entries_(slots) {
    thread_ = std::thread([this] { loop(); });
  }
  DeadlineSupervisor(const DeadlineSupervisor&) = delete;
  DeadlineSupervisor& operator=(const DeadlineSupervisor&) = delete;
  ~DeadlineSupervisor() {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void arm(unsigned slot, std::atomic<bool>* token, Clock::time_point deadline) {
    {
      std::scoped_lock lock(mu_);
      entries_[slot] = Entry{token, deadline, true};
    }
    cv_.notify_all();
  }

  void disarm(unsigned slot) {
    std::scoped_lock lock(mu_);
    entries_[slot].armed = false;
  }

  /// Fault-injection hook: wake the supervisor with nothing expired.
  void spurious_wake() { cv_.notify_all(); }

 private:
  struct Entry {
    std::atomic<bool>* token = nullptr;
    Clock::time_point deadline{};
    bool armed = false;
  };

  void loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      Clock::time_point next = Clock::time_point::max();
      const Clock::time_point now = Clock::now();
      for (Entry& e : entries_) {
        if (!e.armed) continue;
        if (e.deadline <= now) {
          e.token->store(true, std::memory_order_relaxed);
          e.armed = false;
        } else {
          next = std::min(next, e.deadline);
        }
      }
      if (next == Clock::time_point::max()) {
        cv_.wait(lock);
      } else {
        cv_.wait_until(lock, next);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  bool stop_ = false;
  std::thread thread_;
};

[[nodiscard]] std::string what_of(const std::exception_ptr& error) {
  if (!error) return "unknown error";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

[[nodiscard]] std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// -- journal payloads ----------------------------------------------------------
//
// Every payload is TAB-separated and starts with the same prefix:
//   index, program, tag, attempts, wall (hexfloat)
// followed by the fields of its line kind:
//   R (Completed):    serialized SimResult
//   Q (Crashed):      signal, fault_addr (hex), backtrace frames joined by
//                     '\x1f' (the crash decoder scrubbed tabs and newlines
//                     from the frames, so the grammar holds)
//   D (TraceDamaged): damage kind name, block (decimal;
//                     TraceCorruptError::kNoBlock when unattributable),
//                     byte offset

/// Appends the journal line a sealed job leaves behind, if its ending
/// has one: other endings are not journaled, so a resume re-runs them.
void append_journal_line(CheckpointWriter& journal, std::size_t index,
                         const Job& job, const JobOutcome& oc,
                         const SimResult& result) {
  std::ostringstream os;
  os << index << '\t' << job.program << '\t' << job.tag << '\t' << oc.attempts
     << '\t' << hex_double(oc.wall_seconds) << '\t';
  switch (oc.status) {
    case JobStatus::kCompleted:
      os << serialize_sim_result(result);
      journal.append_record(os.str());
      return;
    case JobStatus::kCrashed:
      os << oc.crash.signal << '\t' << std::hex << oc.crash.fault_addr
         << std::dec << '\t';
      for (std::size_t i = 0; i < oc.crash.frames.size(); ++i) {
        if (i != 0) os << '\x1f';
        os << oc.crash.frames[i];
      }
      journal.append_quarantine(os.str());
      return;
    case JobStatus::kTraceDamaged:
      os << trace::trace_damage_name(oc.damage) << '\t' << oc.damage_block
         << '\t' << oc.damage_offset;
      journal.append_damaged(os.str());
      return;
    default:
      return;
  }
}

/// One decoded journal payload: the shared prefix, then its line kind's
/// fields (the last of which takes the rest of the payload).
struct JournalLine {
  std::size_t index = 0;
  std::string program;
  std::string tag;
  std::uint32_t attempts = 0;
  double wall_seconds = 0.0;
  std::vector<std::string> fields;
};

[[nodiscard]] bool parsed_whole(const std::string& s, const char* end) {
  return end == s.c_str() + s.size();
}

/// Splits `payload` into the prefix and `nfields` kind fields. False when
/// the line is torn or a prefix number does not parse.
[[nodiscard]] bool decode_journal_line(const std::string& payload,
                                       std::size_t nfields, JournalLine& out) {
  std::vector<std::string> f;
  std::size_t at = 0;
  while (f.size() < 4 + nfields) {
    const std::size_t tab = payload.find('\t', at);
    if (tab == std::string::npos) return false;
    f.push_back(payload.substr(at, tab - at));
    at = tab + 1;
  }
  f.push_back(payload.substr(at));
  char* end = nullptr;
  errno = 0;
  out.index = std::strtoull(f[0].c_str(), &end, 10);
  if (errno != 0 || !parsed_whole(f[0], end)) return false;
  out.program = f[1];
  out.tag = f[2];
  out.attempts =
      static_cast<std::uint32_t>(std::strtoul(f[3].c_str(), &end, 10));
  if (!parsed_whole(f[3], end)) return false;
  out.wall_seconds = std::strtod(f[4].c_str(), &end);
  if (!parsed_whole(f[4], end)) return false;
  out.fields.assign(f.begin() + 5, f.end());
  return true;
}

/// The identity check every journal line passes before it may seal a
/// job: it names a job of this sweep (index in range, program and tag
/// match) whose slot no earlier line sealed.
[[nodiscard]] bool names_unsealed_job(const JournalLine& l,
                                      const std::vector<Job>& jobs,
                                      const std::vector<bool>& done) {
  return l.index < jobs.size() && l.program == jobs[l.index].program &&
         l.tag == jobs[l.index].tag && !done[l.index];
}

[[nodiscard]] bool decode_result_fields(const JournalLine& l, JobOutcome&,
                                        SimResult& result) {
  return parse_sim_result(l.fields[0], result);
}

[[nodiscard]] bool decode_crash_fields(const JournalLine& l, JobOutcome& oc,
                                       SimResult&) {
  char* end = nullptr;
  oc.crash.signal = static_cast<int>(std::strtol(l.fields[0].c_str(), &end, 10));
  if (!parsed_whole(l.fields[0], end) || oc.crash.signal == 0) return false;
  oc.crash.fault_addr = std::strtoull(l.fields[1].c_str(), &end, 16);
  if (!parsed_whole(l.fields[1], end)) return false;
  const std::string& frames = l.fields[2];
  for (std::size_t from = 0; from <= frames.size() && !frames.empty();) {
    std::size_t sep = frames.find('\x1f', from);
    if (sep == std::string::npos) sep = frames.size();
    if (sep > from) oc.crash.frames.push_back(frames.substr(from, sep - from));
    from = sep + 1;
    if (sep == frames.size()) break;
  }
  oc.term_signal = oc.crash.signal;
  oc.what = "child crashed with " + signal_name(oc.crash.signal) +
            " (quarantined by a previous run)";
  return true;
}

[[nodiscard]] bool decode_damage_fields(const JournalLine& l, JobOutcome& oc,
                                        SimResult&) {
  bool known = false;
  for (const trace::TraceDamage d :
       {trace::TraceDamage::kTornTail, trace::TraceDamage::kInteriorCorrupt,
        trace::TraceDamage::kBadIndex}) {
    if (l.fields[0] == trace::trace_damage_name(d)) {
      oc.damage = d;
      known = true;
      break;
    }
  }
  if (!known) return false;
  char* end = nullptr;
  oc.damage_block = std::strtoull(l.fields[1].c_str(), &end, 10);
  if (!parsed_whole(l.fields[1], end)) return false;
  oc.damage_offset = std::strtoull(l.fields[2].c_str(), &end, 10);
  if (!parsed_whole(l.fields[2], end)) return false;
  oc.what = std::string("trace damage (") + trace::trace_damage_name(oc.damage) +
            ") quarantined by a previous run";
  return true;
}

/// Seals the jobs a previous run's journal finished: R lines as
/// Completed, Q lines as Crashed, D lines as TraceDamaged. Crashes and
/// trace damage are deterministic — re-running replays the crash or
/// rereads the same bad bytes — so a resume seals them instead of
/// re-attempting them, whichever runner it uses. A line that is torn,
/// fails the identity check, or carries unparseable kind fields is
/// counted as ignored.
void seal_from_journal(const CheckpointContents& c,
                       const std::vector<Job>& jobs, SweepReport& rep,
                       std::vector<bool>& done) {
  rep.checkpoint_lines_ignored = c.ignored_lines;
  using Decode = bool (*)(const JournalLine&, JobOutcome&, SimResult&);
  const auto seal = [&](const std::vector<std::string>& lines,
                        std::size_t nfields, JobStatus status,
                        Decode decode) {
    for (const std::string& payload : lines) {
      JournalLine l;
      JobOutcome oc;
      SimResult result;
      if (!decode_journal_line(payload, nfields, l) ||
          !names_unsealed_job(l, jobs, done) || !decode(l, oc, result)) {
        ++rep.checkpoint_lines_ignored;
        continue;
      }
      oc.status = status;
      if (status != JobStatus::kCompleted) {
        oc.failure = FailureClass::kDeterministic;
      }
      oc.attempts = l.attempts;
      oc.wall_seconds = l.wall_seconds;
      oc.from_checkpoint = true;
      rep.jobs[l.index].outcome = std::move(oc);
      rep.jobs[l.index].result = result;
      done[l.index] = true;
    }
  };
  seal(c.records, 1, JobStatus::kCompleted, decode_result_fields);
  seal(c.quarantined, 3, JobStatus::kCrashed, decode_crash_fields);
  seal(c.damaged, 3, JobStatus::kTraceDamaged, decode_damage_fields);
}

/// Arms an I/O fault kind on the job's trace path; the next open of
/// that path (this attempt's trace acquisition) consumes it.
void arm_io_fault(const Job& job, const SweepFault& f) {
  trace::IoFault io;
  io.param = f.param;
  switch (f.kind) {
    case SweepFault::Kind::kShortRead:
      io.kind = trace::IoFault::Kind::kShortRead;
      break;
    case SweepFault::Kind::kBitFlipBlock:
      io.kind = trace::IoFault::Kind::kBitFlipBlock;
      break;
    case SweepFault::Kind::kEnospcOnImport:
      io.kind = trace::IoFault::Kind::kEnospcOnImport;
      break;
    case SweepFault::Kind::kTornImport:
      io.kind = trace::IoFault::Kind::kTornImport;
      break;
    default:
      return;
  }
  trace::set_io_fault(job.config.trace_path, io);
}

/// Journalable names must survive the TAB-separated record grammar.
void require_journalable(const std::vector<Job>& jobs) {
  for (const Job& job : jobs) {
    for (const std::string* s : {&job.program, &job.tag}) {
      if (s->find('\t') != std::string::npos ||
          s->find('\n') != std::string::npos) {
        throw std::invalid_argument(
            "job name/tag '" + *s + "' cannot be journaled (contains a "
            "tab or newline)");
      }
    }
  }
}

/// Fills the report's outcome counters from the per-job slots.
void tally(SweepReport& rep) {
  for (const SweepJobResult& jr : rep.jobs) {
    switch (jr.outcome.status) {
      case JobStatus::kCompleted:
        ++rep.completed;
        if (jr.outcome.from_checkpoint) ++rep.resumed;
        break;
      case JobStatus::kFailed: ++rep.failed; break;
      case JobStatus::kTimedOut: ++rep.timed_out; break;
      case JobStatus::kSkipped: ++rep.skipped; break;
      case JobStatus::kCrashed:
        ++rep.crashed;
        if (jr.outcome.from_checkpoint) ++rep.quarantined;
        break;
      case JobStatus::kResourceExceeded: ++rep.resource_exceeded; break;
      case JobStatus::kTraceDamaged:
        ++rep.trace_damaged;
        if (jr.outcome.from_checkpoint) ++rep.damage_sealed;
        break;
    }
  }
}

// -- the job lifecycle ---------------------------------------------------------

/// One job on its way through the lifecycle: handed out by the queue,
/// carried across retries, sealed exactly once.
struct Ticket {
  std::size_t index = 0;
  std::uint32_t attempts = 0;  ///< attempts started, the current one included
  Clock::time_point t0{};      ///< first attempt's start
  Clock::time_point due{};     ///< a queued retry's earliest start
};

/// How one attempt ended: the outcome the job seals with if this was its
/// last attempt, the failure behind it, and the result when it completed.
struct Ending {
  JobOutcome oc;
  std::exception_ptr error;
  SimResult result;
};

[[nodiscard]] Ending completed(SimResult result) {
  Ending e;
  e.oc.status = JobStatus::kCompleted;
  e.result = std::move(result);
  return e;
}

/// An ending whose status the runner observed directly (a process
/// boundary fate) rather than through a thrown exception.
[[nodiscard]] Ending observed(JobStatus status, FailureClass cls,
                             const std::string& what) {
  Ending e;
  e.oc.status = status;
  e.oc.failure = cls;
  e.oc.what = what;
  e.error = std::make_exception_ptr(std::runtime_error(what));
  return e;
}

/// A thrown failure as the attempt's ending. Only the deadline sets a
/// job's cancellation token, so a cooperative abort is a deadline
/// expiry; verified trace damage seals as TraceDamaged with its
/// location; anything else is Failed with its failure class.
[[nodiscard]] Ending failed(const std::exception_ptr& error) {
  Ending e;
  e.error = error;
  try {
    std::rethrow_exception(error);
  } catch (const core::SimulationAborted& x) {
    e.oc.status = JobStatus::kTimedOut;
    e.oc.what = x.what();
    return e;
  } catch (const trace::TraceCorruptError& x) {
    e.oc.status = JobStatus::kTraceDamaged;
    e.oc.failure = FailureClass::kDeterministic;
    e.oc.what = x.what();
    e.oc.damage = x.damage;
    e.oc.damage_block = x.block;
    e.oc.damage_offset = x.offset;
    return e;
  } catch (...) {
  }
  e.oc.status = JobStatus::kFailed;
  e.oc.failure = classify_failure(error);
  e.oc.what = what_of(error);
  return e;
}

/// The lifecycle's one decision: a transient failure with attempts left
/// retries once its backoff has passed; every other ending seals.
[[nodiscard]] std::optional<Clock::time_point> retry_due(
    const Ending& e, std::uint32_t attempts, const RetryPolicy& retry,
    Clock::time_point now) {
  if (e.oc.status != JobStatus::kFailed ||
      e.oc.failure != FailureClass::kTransient ||
      attempts >= retry.max_attempts) {
    return std::nullopt;
  }
  return now + retry.backoff_for(attempts + 1);
}

/// The job lifecycle both runners drive. A due-time queue hands out
/// attempts — due retries ahead of fresh jobs, fresh jobs in `todo`
/// order, fresh jobs past the failure budget drained to Skipped — the
/// runner performs each attempt, and end_attempt() applies the decision:
/// queue the retry at its due time, or seal. Thread-safe: the in-thread
/// runner's workers share one lifecycle, and the forked-child runner
/// drives it from its single thread through the non-blocking try_take().
class Lifecycle {
 public:
  Lifecycle(const std::vector<Job>& jobs, std::vector<std::size_t> todo,
            const SweepOptions& opt, SweepReport& rep, TraceCache& traces,
            CheckpointWriter* journal)
      : jobs_(jobs),
        todo_(std::move(todo)),
        opt_(opt),
        rep_(rep),
        traces_(traces),
        journal_(journal) {}

  [[nodiscard]] const Job& job(const Ticket& t) const { return jobs_[t.index]; }
  [[nodiscard]] TraceCache& traces() { return traces_; }

  /// The next attempt ready to start, or nullopt when none is yet.
  [[nodiscard]] std::optional<Ticket> try_take() {
    std::scoped_lock lock(mu_);
    return take_locked();
  }

  /// Blocks until an attempt is ready to start; nullopt once every job
  /// has sealed or the sweep was aborted.
  [[nodiscard]] std::optional<Ticket> take() {
    std::unique_lock lock(mu_);
    for (;;) {
      if (panic_) return std::nullopt;
      if (std::optional<Ticket> t = take_locked()) return t;
      if (done_locked()) return std::nullopt;
      Clock::time_point due = Clock::time_point::max();
      for (const Ticket& r : retries_) due = std::min(due, r.due);
      if (due == Clock::time_point::max()) {
        cv_.wait(lock);
      } else {
        cv_.wait_until(lock, due);
      }
    }
  }

  /// True once every job has sealed.
  [[nodiscard]] bool done() const {
    std::scoped_lock lock(mu_);
    return done_locked();
  }

  /// The pre-run fault hook: looks up the fault planned for this
  /// attempt, arms an I/O kind on the job's trace path (both runners
  /// acquire the trace in this process, which consumes it) and returns
  /// any other kind for the runner to perform where the attempt runs —
  /// on the worker thread, or inside the forked child.
  [[nodiscard]] const SweepFault* pre_run(const Ticket& t) const {
    const SweepFault* f =
        opt_.faults != nullptr ? opt_.faults->find(t.index, t.attempts)
                               : nullptr;
    if (f == nullptr || !SweepFault::is_io_fault(f->kind)) return f;
    arm_io_fault(jobs_[t.index], *f);
    return nullptr;
  }

  /// Applies the lifecycle decision to a finished attempt.
  void end_attempt(Ticket t, Ending e) {
    if (const std::optional<Clock::time_point> due =
            retry_due(e, t.attempts, opt_.retry, Clock::now())) {
      t.due = *due;
      {
        std::scoped_lock lock(mu_);
        retries_.push_back(t);
        --active_;
      }
      cv_.notify_all();
      return;
    }
    seal(t, std::move(e));
  }

  /// Stops the sweep after an infrastructure failure on a worker thread
  /// (journal I/O, bad_alloc in bookkeeping — per-job failures are
  /// outcomes and never land here). The first failure wins; take()
  /// returns nullopt to every worker, and rethrow_if_aborted() raises it
  /// after the join.
  void abort(std::exception_ptr error) {
    {
      std::scoped_lock lock(mu_);
      if (!panic_) panic_ = std::move(error);
    }
    cv_.notify_all();
  }

  void rethrow_if_aborted() const {
    if (panic_) std::rethrow_exception(panic_);
  }

 private:
  [[nodiscard]] std::optional<Ticket> take_locked() {
    const Clock::time_point now = Clock::now();
    const auto due = std::find_if(retries_.begin(), retries_.end(),
                                  [now](const Ticket& r) { return r.due <= now; });
    if (due != retries_.end()) {
      Ticket t = *due;
      retries_.erase(due);
      return start_locked(t);
    }
    while (cursor_ < todo_.size()) {
      const std::size_t i = todo_[cursor_++];
      if (opt_.max_failures != 0 && failures_ >= opt_.max_failures) {
        // Drained: an explicit Skipped outcome, never a zero-stat row.
        rep_.jobs[i].outcome.status = JobStatus::kSkipped;
        rep_.jobs[i].outcome.attempts = 0;
        traces_.finished(jobs_[i]);
        continue;
      }
      Ticket t;
      t.index = i;
      t.t0 = now;
      return start_locked(t);
    }
    return std::nullopt;
  }

  [[nodiscard]] Ticket start_locked(Ticket t) {
    ++t.attempts;
    ++active_;
    return t;
  }

  [[nodiscard]] bool done_locked() const {
    return cursor_ >= todo_.size() && retries_.empty() && active_ == 0;
  }

  /// Seals the job: wall clock from its first attempt, trace release,
  /// its journal line, the report slot and the failure count the drain
  /// reads. Each index is sealed exactly once, so the report slot needs
  /// no lock; the journal does.
  void seal(const Ticket& t, Ending e) {
    e.oc.attempts = t.attempts;
    e.oc.wall_seconds = seconds_since(t.t0);
    traces_.finished(jobs_[t.index]);
    if (journal_ != nullptr) {
      std::scoped_lock lock(journal_mu_);
      append_journal_line(*journal_, t.index, jobs_[t.index], e.oc, e.result);
    }
    const bool failure = e.oc.status != JobStatus::kCompleted;
    SweepJobResult& out = rep_.jobs[t.index];
    out.outcome = std::move(e.oc);
    out.error = std::move(e.error);
    if (!failure) out.result = std::move(e.result);
    {
      std::scoped_lock lock(mu_);
      --active_;
      if (failure) ++failures_;
    }
    cv_.notify_all();
  }

  const std::vector<Job>& jobs_;
  const std::vector<std::size_t> todo_;
  const SweepOptions& opt_;
  SweepReport& rep_;
  TraceCache& traces_;
  CheckpointWriter* journal_;
  std::mutex journal_mu_;

  mutable std::mutex mu_;  ///< guards the queue state below
  std::condition_variable cv_;
  std::size_t cursor_ = 0;       ///< next fresh job, as an index into todo_
  std::vector<Ticket> retries_;  ///< failed attempts waiting out their backoff
  std::size_t active_ = 0;       ///< tickets handed out, not yet sealed or requeued
  std::size_t failures_ = 0;     ///< sealed jobs that did not complete
  std::exception_ptr panic_;
};

// -- runners -------------------------------------------------------------------

/// Performs an in-thread attempt's injected fault. run_sweep rejects the
/// isolation-only and import-only kinds before any runner starts, and
/// the pre-run hook already armed the I/O kinds.
void perform_fault(const SweepFault& f, const Ticket& t,
                   DeadlineSupervisor* supervisor) {
  const std::string where = "(job " + std::to_string(t.index) + ", attempt " +
                            std::to_string(t.attempts) + ")";
  switch (f.kind) {
    case SweepFault::Kind::kThrowTransient:
      throw TransientFault("injected transient fault " + where);
    case SweepFault::Kind::kThrowDeterministic:
      throw std::logic_error("injected deterministic fault " + where);
    case SweepFault::Kind::kDelay:
      std::this_thread::sleep_for(f.delay);
      return;
    case SweepFault::Kind::kSpuriousWake:
      if (supervisor != nullptr) supervisor->spurious_wake();
      return;
    default:
      return;
  }
}

/// The in-thread runner: `threads` workers, each running one attempt at
/// a time under the shared DeadlineSupervisor (slot = worker index). A
/// worker never sleeps out a retry backoff: the retry waits on the queue
/// while the worker takes the next ready job.
void run_in_threads(Lifecycle& life, const SweepOptions& opt,
                    unsigned threads, DeadlineSupervisor* supervisor) {
  const auto worker = [&life, &opt, supervisor](unsigned slot) {
    std::atomic<bool> cancel{false};
    while (std::optional<Ticket> t = life.take()) {
      const Job& job = life.job(*t);
      cancel.store(false, std::memory_order_relaxed);
      Ending end;
      try {
        if (supervisor != nullptr && opt.job_deadline.count() > 0) {
          supervisor->arm(slot, &cancel, Clock::now() + opt.job_deadline);
        }
        if (const SweepFault* f = life.pre_run(*t)) {
          perform_fault(*f, *t, supervisor);
        }
        const auto trace = life.traces().get(job);
        SimConfig cfg = job.config;
        cfg.core.should_abort = &cancel;
        end = completed(run_simulation(cfg, trace->view()));
      } catch (...) {
        end = failed(std::current_exception());
      }
      if (supervisor != nullptr) supervisor->disarm(slot);
      life.end_attempt(*t, std::move(end));
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  try {
    for (unsigned s = 0; s < threads; ++s) {
      pool.emplace_back([&life, &worker, s] {
        try {
          worker(s);
        } catch (...) {
          life.abort(std::current_exception());
        }
      });
    }
  } catch (...) {
    // A thread that failed to start: stop the ones that did, then join.
    life.abort(std::current_exception());
  }
  for (auto& th : pool) th.join();
  life.rethrow_if_aborted();
}

/// A reaped child's fate as the attempt's ending. An error frame names
/// the child's failure class; it is rebuilt here as the exception that
/// class stands for, so both runners' endings go through failed().
[[nodiscard]] Ending ending_of(const ProcessExecutor::Event& ev) {
  using Fate = ProcessExecutor::FateKind;
  Ending e;
  switch (ev.fate) {
    case Fate::kResult:
      e = completed(ev.result);
      break;
    case Fate::kError:
      if (ev.error_class == kErrResource) {
        e = observed(JobStatus::kResourceExceeded,
                     FailureClass::kDeterministic, ev.what);
      } else if (ev.error_class == kErrAborted) {
        // Only the deadline SIGTERM flips the child's token, so an
        // aborted frame is a deadline expiry that unwound cleanly.
        e = failed(std::make_exception_ptr(core::SimulationAborted(ev.what)));
      } else if (ev.error_class == kErrTransient) {
        e = failed(std::make_exception_ptr(TransientFault(ev.what)));
      } else {
        e = failed(std::make_exception_ptr(std::runtime_error(ev.what)));
      }
      break;
    case Fate::kKilled:
      e = observed(JobStatus::kTimedOut, FailureClass::kNone, ev.what);
      break;
    case Fate::kCrashed:
      e = observed(JobStatus::kCrashed, FailureClass::kDeterministic, ev.what);
      e.oc.crash = ev.crash;
      break;
    case Fate::kResourceExceeded:
      e = observed(JobStatus::kResourceExceeded, FailureClass::kDeterministic,
                   ev.what);
      break;
    case Fate::kBadFrame:
    case Fate::kBadExit:
      e = observed(JobStatus::kFailed, FailureClass::kDeterministic, ev.what);
      break;
  }
  e.oc.term_signal = ev.signal;
  return e;
}

/// The forked-child runner: each attempt runs in a forked child under
/// rlimit jails (src/sim/process_executor.h), at most `isolate_procs`
/// alive at once, supervised by this single-threaded loop — the parent
/// starts no thread, so fork() stays safe. That is also why deadlines
/// are enforced here by escalation (SIGTERM at the deadline, SIGKILL
/// once the grace expires) instead of by the DeadlineSupervisor: a stuck
/// child needs signals, not a token it will never poll. The parent
/// acquires each trace before forking (the child reads the inherited
/// mapping), so trace damage is found parent-side without forking, and
/// it drops its reference when it reaps the child, so a job that
/// crashes or is killed cannot pin its mapping.
void run_forked(Lifecycle& life, const SweepOptions& opt) {
  struct InFlight {
    Ticket ticket;
    std::shared_ptr<const trace::TraceSource> trace;
    Clock::time_point deadline = Clock::time_point::max();
    Clock::time_point kill_at = Clock::time_point::max();
    bool termed = false;
  };
  ProcessExecutor exec;
  std::map<std::uint64_t, InFlight> inflight;
  const std::size_t procs = std::max(1U, opt.isolate_procs);
  for (;;) {
    while (inflight.size() < procs) {
      const std::optional<Ticket> t = life.try_take();
      if (!t) break;
      const Job& job = life.job(*t);
      InFlight st;
      st.ticket = *t;
      try {
        const SweepFault* fault = life.pre_run(*t);
        st.trace = life.traces().get(job);
        exec.spawn(t->index, job.config, st.trace->view(), fault,
                   ChildLimits{opt.job_mem_mb, opt.job_cpu_s});
      } catch (...) {
        life.end_attempt(*t, failed(std::current_exception()));
        continue;
      }
      if (opt.job_deadline.count() > 0) {
        st.deadline = Clock::now() + opt.job_deadline;
      }
      inflight.emplace(t->index, std::move(st));
    }
    if (inflight.empty() && life.done()) return;
    const Clock::time_point now = Clock::now();
    for (auto& [key, st] : inflight) {
      if (!st.termed && now >= st.deadline) {
        st.termed = true;
        st.kill_at = now + opt.kill_grace;
        exec.term(key);
      } else if (st.termed && now >= st.kill_at) {
        exec.kill(key);
      }
    }
    if (const std::optional<ProcessExecutor::Event> ev = exec.poll()) {
      const auto node = inflight.extract(ev->key);
      life.end_attempt(node.mapped().ticket, ending_of(*ev));
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

const char* job_status_name(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimedOut: return "timed-out";
    case JobStatus::kSkipped: return "skipped";
    case JobStatus::kCrashed: return "crashed";
    case JobStatus::kResourceExceeded: return "resource-exceeded";
    case JobStatus::kTraceDamaged: return "trace-damaged";
  }
  return "?";
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    case SIGXFSZ: return "SIGXFSZ";
    default: return "SIG" + std::to_string(sig);
  }
}

int sweep_exit_code(const SweepReport& report) noexcept {
  if (report.crashed != 0 || report.resource_exceeded != 0 ||
      report.trace_damaged != 0) {
    return 3;
  }
  return report.all_completed() ? 0 : 2;
}

const char* failure_class_name(FailureClass c) noexcept {
  switch (c) {
    case FailureClass::kNone: return "none";
    case FailureClass::kTransient: return "transient";
    case FailureClass::kDeterministic: return "deterministic";
  }
  return "?";
}

FailureClass classify_failure(const std::exception_ptr& error) {
  if (!error) return FailureClass::kNone;
  try {
    std::rethrow_exception(error);
  } catch (const TransientFault&) {
    return FailureClass::kTransient;
  } catch (const std::bad_alloc&) {
    return FailureClass::kTransient;
  } catch (const trace::TraceCorruptError&) {
    // Guard-verified damage behind an intact header: the bytes on disk
    // don't heal, so a retry replays the identical read. Must precede
    // the TraceFormatError arm (it's the base class).
    return FailureClass::kDeterministic;
  } catch (const trace::TraceFormatError&) {
    return FailureClass::kTransient;
  } catch (...) {
    return FailureClass::kDeterministic;
  }
}

std::uint64_t sweep_fingerprint(const std::vector<Job>& jobs) {
  // Hash every knob that changes what a job computes. Nondeterminism
  // knobs (threads, deadlines, retry policy) are deliberately excluded:
  // they alter how the sweep runs, not what each job's results are.
  std::ostringstream os;
  for (const Job& job : jobs) {
    const SimConfig& c = job.config;
    os << job.program << '\x1f' << job.tag << '\x1f'
       << lsq_choice_name(c.lsq) << '\x1f' << c.instructions << '\x1f'
       << c.seed << '\x1f' << c.trace_path << '\x1f'
       // Three sharded-replay fields, since removed, were hashed here
       // (always 0 outside shard jobs); hashing the same bytes keeps
       // journals written before their removal resumable.
       << "0\x1f" "0\x1f" "0\x1f"
       << c.paper_energy_constants << '\x1f'
       << c.core.exploit_known_line_latency << '\x1f'
       << c.conventional.entries << '\x1f' << c.samie.banks << '\x1f'
       << c.samie.entries_per_bank << '\x1f' << c.samie.slots_per_entry
       << '\x1f' << c.samie.shared_entries << '\x1f'
       << c.samie.addr_buffer_slots << '\x1f' << c.samie.unbounded_shared
       << '\x1f' << c.arb.banks << '\x1f' << c.arb.rows_per_bank << '\x1f'
       << c.arb.max_inflight << '\x1e';
  }
  const std::string s = os.str();
  return trace::fnv1a_64(s.data(), s.size());
}

SweepReport run_sweep(const std::vector<Job>& jobs, const SweepOptions& opt) {
  if (opt.faults != nullptr) {
    for (const SweepFault& f : opt.faults->faults) {
      if (SweepFault::needs_isolation(f.kind) && opt.isolate_procs == 0) {
        throw std::invalid_argument(
            "fault kind for job " + std::to_string(f.job) +
            " requires process isolation (isolate_procs) — it takes the "
            "whole process down");
      }
      if (f.kind == SweepFault::Kind::kOom && opt.job_mem_mb == 0) {
        throw std::invalid_argument(
            "an oom fault requires a job_mem_mb jail (without RLIMIT_AS the "
            "bomb runs into host memory)");
      }
      if (SweepFault::import_only(f.kind)) {
        throw std::invalid_argument(
            "fault kind for job " + std::to_string(f.job) +
            " is import-only (enospc-on-import / torn-import) — a sweep "
            "replays traces, it never imports one; arm it on samie_sim "
            "--import-trace instead");
      }
      if (SweepFault::is_io_fault(f.kind) && f.job < jobs.size() &&
          jobs[f.job].config.trace_path.empty()) {
        throw std::invalid_argument(
            "I/O fault for job " + std::to_string(f.job) +
            " targets a generated workload — there is no trace file to "
            "fault");
      }
    }
  }
  unsigned threads = opt.threads != 0 ? opt.threads : bench_threads();
  threads = std::max(1U, std::min<unsigned>(
                             threads, static_cast<unsigned>(jobs.size()) + 1));

  SweepReport rep;
  rep.jobs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) rep.jobs[i].job = jobs[i];

  // -- checkpoint: seal journaled jobs, open the journal -------------------
  std::vector<bool> done(jobs.size(), false);
  std::optional<CheckpointWriter> journal;
  if (!opt.checkpoint_path.empty()) {
    require_journalable(jobs);
    const std::uint64_t fingerprint = sweep_fingerprint(jobs);
    if (opt.resume && std::filesystem::exists(opt.checkpoint_path)) {
      const CheckpointContents c = load_checkpoint(opt.checkpoint_path);
      if (c.njobs != jobs.size() || c.fingerprint != fingerprint) {
        throw CheckpointError(
            opt.checkpoint_path +
            ": checkpoint belongs to a different sweep (job list or "
            "configuration changed) — delete it or fix the command line");
      }
      seal_from_journal(c, jobs, rep, done);
      journal = CheckpointWriter::append_to(opt.checkpoint_path);
    } else {
      journal = CheckpointWriter::create(opt.checkpoint_path, jobs.size(),
                                         fingerprint);
    }
  }

  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!done[i]) todo.push_back(i);
  }

  TraceCache traces(jobs, done);
  Lifecycle life(jobs, std::move(todo), opt, rep, traces,
                 journal ? &*journal : nullptr);
  if (opt.isolate_procs != 0) {
    run_forked(life, opt);
  } else {
    const bool wants_wake_faults =
        opt.faults != nullptr &&
        std::any_of(opt.faults->faults.begin(), opt.faults->faults.end(),
                    [](const SweepFault& f) {
                      return f.kind == SweepFault::Kind::kSpuriousWake;
                    });
    std::optional<DeadlineSupervisor> supervisor;
    if (opt.job_deadline.count() > 0 || wants_wake_faults) {
      supervisor.emplace(threads);
    }
    run_in_threads(life, opt, threads, supervisor ? &*supervisor : nullptr);
  }

  rep.trace_resident_high_water = traces.resident_high_water();
  tally(rep);
  return rep;
}

void print_failure_report(std::ostream& os, const SweepReport& report) {
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const SweepJobResult& jr = report.jobs[i];
    if (jr.completed()) continue;
    os << "sweep: job=" << i << " program=" << jr.job.program
       << " tag=" << jr.job.tag
       << " outcome=" << job_status_name(jr.outcome.status);
    if (jr.outcome.failure != FailureClass::kNone) {
      os << " class=" << failure_class_name(jr.outcome.failure);
    }
    if (jr.outcome.term_signal != 0) {
      os << " signal=" << signal_name(jr.outcome.term_signal);
    }
    if (jr.outcome.status == JobStatus::kTraceDamaged) {
      os << " damage=" << trace::trace_damage_name(jr.outcome.damage);
      if (jr.outcome.damage_block != trace::TraceCorruptError::kNoBlock) {
        os << " block=" << jr.outcome.damage_block;
      }
      os << " offset=" << jr.outcome.damage_offset;
    }
    os << " attempts=" << jr.outcome.attempts
       << " wall=" << jr.outcome.wall_seconds;
    if (!jr.outcome.what.empty()) os << " error=" << jr.outcome.what;
    // Last field: frames contain spaces, so nothing may follow it.
    if (jr.outcome.crash.present()) {
      const CrashRecord& c = jr.outcome.crash;
      char addr[24];
      std::snprintf(addr, sizeof addr, "0x%" PRIx64, c.fault_addr);
      os << " crash_record=signal:" << signal_name(c.signal)
         << ";addr:" << addr << ";frames:";
      for (std::size_t f = 0; f < c.frames.size(); ++f) {
        if (f != 0) os << '|';
        os << c.frames[f];
      }
    }
    os << "\n";
  }
  os << "sweep: " << report.completed << "/" << report.jobs.size()
     << " completed, " << report.failed << " failed, " << report.timed_out
     << " timed-out, " << report.skipped << " skipped";
  if (report.crashed != 0) os << ", " << report.crashed << " crashed";
  if (report.resource_exceeded != 0) {
    os << ", " << report.resource_exceeded << " resource-exceeded";
  }
  if (report.trace_damaged != 0) {
    os << ", " << report.trace_damaged << " trace-damaged";
  }
  if (report.resumed != 0) {
    os << " (" << report.resumed << " resumed from checkpoint)";
  }
  if (report.quarantined != 0) {
    os << " (" << report.quarantined << " quarantined)";
  }
  if (report.damage_sealed != 0) {
    os << " (" << report.damage_sealed << " damage-sealed)";
  }
  if (report.checkpoint_lines_ignored != 0) {
    os << " [" << report.checkpoint_lines_ignored
       << " torn checkpoint line(s) ignored]";
  }
  os << "\n";
}

}  // namespace samie::sim
