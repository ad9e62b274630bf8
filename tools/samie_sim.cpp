// samie_sim: the command-line driver for the simulator.
//
//   samie_sim [options] [program ...]
//
//   --lsq=<conventional|unbounded|arb|samie>   queue under test (default samie)
//   --insts=N          instructions per program        (default 200000)
//   --seed=N           workload seed                   (default 42)
//   --banks=N          SAMIE DistribLSQ banks          (default 64)
//   --entries=N        SAMIE entries per bank          (default 2)
//   --slots=N          SAMIE slots per entry           (default 8)
//   --shared=N         SAMIE SharedLSQ entries         (default 8)
//   --addrbuf=N        SAMIE AddrBuffer slots          (default 64)
//   --unbounded-shared let the SharedLSQ grow freely   (Figure 3 mode)
//   --arb-banks=N --arb-rows=N --arb-inflight=N        ARB geometry
//   --conv-entries=N   conventional LSQ entries        (default 128)
//   --fast-way-known   exploit the lower way-known L1D latency (§3.6)
//   --no-skip          disable the event-driven quiescent-cycle
//                      fast-forward and walk every cycle (differential
//                      escape hatch; statistics are identical either way)
//   --derived-energy   account with the analytical surrogate, not the
//                      paper's published constants
//   --csv              machine-readable output (one row per program)
//   --threads=N        worker threads of the in-thread runner (default:
//                      all hardware threads). Any N emits the identical
//                      CSV, rows in job order
//
// Sweep robustness (docs/SWEEP_ROBUSTNESS.md):
//   --isolate[=N]          forked-child runner: each attempt runs in a
//                          forked child (up to N alive at once; default:
//                          all hardware threads) so a job that crashes,
//                          OOMs or spins cannot take the sweep down.
//                          Results are byte-identical to the in-thread
//                          runner's
//   --job-mem-mb=N         RLIMIT_AS jail per child, MiB (isolation only)
//   --job-cpu-s=N          RLIMIT_CPU backstop per child, seconds
//   --kill-grace-ms=N      grace between the deadline SIGTERM and the
//                          SIGKILL hard kill (default 500)
//   --retries=N            attempts per transiently-failing job (default 3)
//   --job-deadline-ms=N    per-job wall-clock deadline; an overrunning job
//                          is cancelled cooperatively and reported timed-out
//   --max-failures=N       drain the sweep after N failed/timed-out jobs
//                          (remaining jobs report skipped; default: run all)
//   --checkpoint=FILE      journal each completed job to FILE (crash-safe)
//   --resume=FILE          resume an interrupted sweep from FILE: finished
//                          jobs are loaded bit-identically, the rest run
//   --inject-fault=J:A:KIND[:ARG]  test/CI hook: inject a fault at job J
//                          (0-based) attempt A (1-based); KIND is flaky
//                          (transient throw), fail (deterministic throw),
//                          delay (sleep ARG ms first) or wake (spurious
//                          supervisor wake-up). Under --isolate only:
//                          crash (SIGSEGV in the child), oom (allocation
//                          bomb into the --job-mem-mb jail), spin (busy
//                          loop ignoring the cancel token) and torn-frame
//                          (the child's answer cut in half). I/O kinds
//                          (armed on the job's trace path, consumed by the
//                          next open): short-read (hide the last ARG bytes;
//                          0 = 64) and bit-flip (flip one payload bit of
//                          v2 block ARG in memory). Import-only kind —
//                          J indexes the imported file: enospc-on-import
//                          (the write fails as if the disk filled,
//                          leaving neither the file nor its .tmp).
//                          Repeatable.
//
// Trace modes (SAMT format: docs/TRACE_FORMAT.md):
//   --record-trace=DIR   additionally write each program's generated
//                        trace to DIR/<program>.samt as SAMT v2 (DIR is
//                        created): its blocks as generated, published
//                        atomically by write_samt_v2. The programs are
//                        recorded on the sweep's worker count (--threads
//                        or --isolate's N) before the sweep starts;
//                        combined with --import-trace this converts the
//                        imported text traces to SAMT v2
//   --replay-trace=PATH  replay a recorded SAMT v2 file — or every .samt
//                        in a directory — block-decoded, every guard
//                        checked. Replays the full trace unless --insts
//                        is given. A version-1 file is refused: convert
//                        it with samt_convert as built at the commit
//                        the error names
//   --import-trace=PATH  import a plain-text trace file (or directory of
//                        .txt/.trace files; one op per line) and run it
//
// With no programs, the whole 26-program SPEC2000 suite runs.
//
// Exit status: 0 when every job completed, 3 when the sweep finished
// but at least one job crashed its isolated child, exceeded its
// resource jail, or hit trace damage (outcome=trace-damaged with
// damage=/block=/offset= fields in the per-job report), 2 when the
// sweep was partial for any other reason (jobs failed, timed out or
// were skipped — the failure report goes to stderr, completed rows
// still print), 1 on usage or fatal errors (bad flags, unreadable
// checkpoint, import failure).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "src/common/table.h"
#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep_scheduler.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "tools/cli_util.h"

namespace {

using namespace samie;

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "samie_sim: " << what << " (see the header of tools/samie_sim.cpp)\n";
  std::exit(1);
}

bool parse_u64(const std::string& arg, const char* key, std::uint64_t& out) {
  return tools::parse_u64(arg, key, out,
                          [](const std::string& what) { usage_error(what); });
}

/// An import-only injected fault, armed on the J-th imported file.
struct ImportFault {
  std::uint64_t file = 0;
  trace::IoFault io;
};

/// Parses --inject-fault=J:A:KIND[:ARG] into the sweep's fault plan, or,
/// for the import-only kind, into `imports`.
void parse_fault(const std::string& spec, sim::SweepFaultPlan& plan,
                 std::vector<ImportFault>& imports) {
  std::vector<std::string> parts;
  std::size_t at = 0;
  while (true) {
    const std::size_t colon = spec.find(':', at);
    parts.push_back(spec.substr(at, colon - at));
    if (colon == std::string::npos) break;
    at = colon + 1;
  }
  if (parts.size() < 3 || parts.size() > 4) {
    usage_error("--inject-fault wants J:A:KIND[:MS], got '" + spec + "'");
  }
  sim::SweepFault f;
  char* end = nullptr;
  f.job = std::strtoull(parts[0].c_str(), &end, 10);
  if (end != parts[0].c_str() + parts[0].size()) {
    usage_error("bad job index in --inject-fault '" + spec + "'");
  }
  f.attempt = static_cast<std::uint32_t>(std::strtoul(parts[1].c_str(), &end, 10));
  if (end != parts[1].c_str() + parts[1].size() || f.attempt == 0) {
    usage_error("bad (1-based) attempt in --inject-fault '" + spec + "'");
  }
  const std::string& kind = parts[2];
  trace::IoFault import;
  if (kind == "flaky") f.kind = sim::SweepFault::Kind::kThrowTransient;
  else if (kind == "fail") f.kind = sim::SweepFault::Kind::kThrowDeterministic;
  else if (kind == "delay") f.kind = sim::SweepFault::Kind::kDelay;
  else if (kind == "wake") f.kind = sim::SweepFault::Kind::kSpuriousWake;
  else if (kind == "crash") f.kind = sim::SweepFault::Kind::kCrash;
  else if (kind == "oom") f.kind = sim::SweepFault::Kind::kOom;
  else if (kind == "spin") f.kind = sim::SweepFault::Kind::kSpin;
  else if (kind == "torn-frame") f.kind = sim::SweepFault::Kind::kTornFrame;
  else if (kind == "short-read") f.kind = sim::SweepFault::Kind::kShortRead;
  else if (kind == "bit-flip") f.kind = sim::SweepFault::Kind::kBitFlipBlock;
  else if (kind == "enospc-on-import")
    import.kind = trace::IoFault::Kind::kEnospcOnImport;
  else usage_error("unknown fault kind '" + kind + "' in --inject-fault");
  std::uint64_t arg = 0;
  if (parts.size() == 4) {
    arg = std::strtoull(parts[3].c_str(), &end, 10);
    if (end != parts[3].c_str() + parts[3].size()) {
      usage_error("bad argument in --inject-fault '" + spec + "'");
    }
  }
  if (import.kind != trace::IoFault::Kind::kNone) {
    import.param = arg;
    imports.push_back({f.job, import});
  } else if (sim::SweepFault::is_io_fault(f.kind)) {
    f.param = arg;
    plan.faults.push_back(f);
  } else {
    f.delay = std::chrono::milliseconds(arg);
    plan.faults.push_back(f);
  }
}

/// Writes each program's generated trace to DIR/<program>.samt (its v2
/// blocks as TraceSource::generate holds them) on `workers` threads, the
/// calling one among them, and prints the "recorded" lines in program
/// order. Every thread is joined before it returns, so the forked-child
/// runner starts from a single-threaded parent; the first failure in
/// program order is rethrown once all are joined.
void record_programs(const std::vector<std::string>& programs,
                     const sim::SimConfig& cfg, const std::string& dir,
                     unsigned workers) {
  std::vector<std::string> paths(programs.size());
  std::vector<std::uint64_t> sizes(programs.size());
  std::vector<std::exception_ptr> errors(programs.size());
  std::atomic<std::size_t> next{0};
  const auto record = [&] {
    for (std::size_t i = next++; i < programs.size(); i = next++) {
      try {
        const std::string& p = programs[i];
        const trace::TraceSource src = trace::TraceSource::generate(
            trace::spec2000_profile(p), cfg.seed, cfg.instructions);
        paths[i] = (std::filesystem::path(dir) / (p + ".samt")).string();
        trace::write_samt_v2(paths[i], src.blocks(), p, cfg.seed);
        sizes[i] = src.size();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    const std::size_t threads = std::min<std::size_t>(workers, programs.size());
    try {
      for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(record);
    } catch (const std::system_error&) {
      // A worker that cannot start leaves its programs to the others.
    }
    record();
  }  // the helpers join here
  for (std::size_t i = 0; i < programs.size(); ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    std::cerr << "recorded " << paths[i] << " (" << sizes[i] << " ops)\n";
  }
}

/// Collects PATH itself (a file) or the files under it (a directory)
/// whose extension is in `exts`, sorted by name.
std::vector<std::string> collect_files(const std::string& path,
                                       std::initializer_list<const char*> exts) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      for (const char* e : exts) {
        if (ext == e) {
          out.push_back(entry.path().string());
          break;
        }
      }
    }
    std::sort(out.begin(), out.end());
    if (out.empty()) usage_error("no matching trace files under '" + path + "'");
  } else {
    out.push_back(path);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
  cfg.instructions = 200'000;
  bool csv = false;
  bool insts_given = false;
  std::string record_dir;
  std::string replay_path;
  std::string import_path;
  std::vector<std::string> programs;
  sim::SweepOptions sweep;
  sim::SweepFaultPlan fault_plan;
  std::vector<ImportFault> import_faults;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t v = 0;
    if (arg.rfind("--record-trace=", 0) == 0) {
      record_dir = arg.substr(15);
    } else if (arg.rfind("--replay-trace=", 0) == 0) {
      replay_path = arg.substr(15);
    } else if (arg.rfind("--import-trace=", 0) == 0) {
      import_path = arg.substr(15);
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      sweep.checkpoint_path = arg.substr(13);
    } else if (arg.rfind("--resume=", 0) == 0) {
      sweep.checkpoint_path = arg.substr(9);
      sweep.resume = true;
    } else if (arg.rfind("--inject-fault=", 0) == 0) {
      parse_fault(arg.substr(15), fault_plan, import_faults);
    } else if (parse_u64(arg, "--retries", v)) {
      if (v == 0) usage_error("--retries must be at least 1");
      sweep.retry.max_attempts = static_cast<std::uint32_t>(v);
    } else if (parse_u64(arg, "--job-deadline-ms", v)) {
      sweep.job_deadline = std::chrono::milliseconds(v);
    } else if (parse_u64(arg, "--max-failures", v)) {
      sweep.max_failures = static_cast<std::size_t>(v);
    } else if (arg.rfind("--lsq=", 0) == 0) {
      const std::string k = arg.substr(6);
      if (k == "conventional") cfg.lsq = sim::LsqChoice::kConventional;
      else if (k == "unbounded") cfg.lsq = sim::LsqChoice::kUnbounded;
      else if (k == "arb") cfg.lsq = sim::LsqChoice::kArb;
      else if (k == "samie") cfg.lsq = sim::LsqChoice::kSamie;
      else usage_error("unknown LSQ kind '" + k + "'");
    } else if (parse_u64(arg, "--insts", v)) {
      cfg.instructions = v;
      insts_given = true;
    } else if (parse_u64(arg, "--seed", v)) {
      cfg.seed = v;
    } else if (parse_u64(arg, "--banks", v)) {
      cfg.samie.banks = static_cast<std::uint32_t>(v);
    } else if (parse_u64(arg, "--entries", v)) {
      cfg.samie.entries_per_bank = static_cast<std::uint32_t>(v);
    } else if (parse_u64(arg, "--slots", v)) {
      cfg.samie.slots_per_entry = static_cast<std::uint32_t>(v);
    } else if (parse_u64(arg, "--shared", v)) {
      cfg.samie.shared_entries = static_cast<std::uint32_t>(v);
    } else if (parse_u64(arg, "--addrbuf", v)) {
      cfg.samie.addr_buffer_slots = static_cast<std::uint32_t>(v);
    } else if (arg == "--unbounded-shared") {
      cfg.samie.unbounded_shared = true;
    } else if (parse_u64(arg, "--arb-banks", v)) {
      cfg.arb.banks = static_cast<std::uint32_t>(v);
    } else if (parse_u64(arg, "--arb-rows", v)) {
      cfg.arb.rows_per_bank = static_cast<std::uint32_t>(v);
    } else if (parse_u64(arg, "--arb-inflight", v)) {
      cfg.arb.max_inflight = static_cast<std::uint32_t>(v);
    } else if (parse_u64(arg, "--conv-entries", v)) {
      cfg.conventional.entries = static_cast<std::uint32_t>(v);
    } else if (arg == "--fast-way-known") {
      cfg.core.exploit_known_line_latency = true;
    } else if (arg == "--no-skip") {
      cfg.core.always_step = true;
    } else if (arg == "--derived-energy") {
      cfg.paper_energy_constants = false;
    } else if (arg == "--csv") {
      csv = true;
    } else if (parse_u64(arg, "--threads", v)) {
      sweep.threads = static_cast<unsigned>(v);
    } else if (arg == "--isolate") {
      sweep.isolate_procs = sim::bench_threads();
    } else if (parse_u64(arg, "--isolate", v)) {
      if (v == 0) usage_error("--isolate must be at least 1");
      sweep.isolate_procs = static_cast<unsigned>(v);
    } else if (parse_u64(arg, "--job-mem-mb", v)) {
      sweep.job_mem_mb = v;
    } else if (parse_u64(arg, "--job-cpu-s", v)) {
      sweep.job_cpu_s = v;
    } else if (parse_u64(arg, "--kill-grace-ms", v)) {
      sweep.kill_grace = std::chrono::milliseconds(v);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the header of tools/samie_sim.cpp for options\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      usage_error("unknown option '" + arg + "'");
    } else {
      programs.push_back(arg);
    }
  }
  if (!replay_path.empty() && !import_path.empty()) {
    usage_error("--replay-trace and --import-trace are mutually exclusive");
  }
  if (!replay_path.empty() && !record_dir.empty()) {
    usage_error("--record-trace cannot be combined with --replay-trace "
                "(the trace is already recorded)");
  }
  if ((!replay_path.empty() || !import_path.empty()) && !programs.empty()) {
    usage_error("program names cannot be combined with trace replay/import");
  }
  if (!import_path.empty() && !sweep.checkpoint_path.empty()) {
    usage_error("--checkpoint/--resume apply to sweep modes, not --import-trace");
  }
  if (sweep.isolate_procs != 0 && !import_path.empty()) {
    usage_error("--isolate applies to sweep modes, not --import-trace");
  }
  if (!import_faults.empty() && import_path.empty()) {
    usage_error("enospc-on-import applies to --import-trace "
                "(a sweep replays traces, it never imports one)");
  }
  if (!record_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(record_dir, ec);
    if (ec) usage_error("cannot create '" + record_dir + "': " + ec.message());
  }
  if (!fault_plan.faults.empty()) sweep.faults = &fault_plan;

  std::vector<sim::JobResult> results;
  sim::SweepReport report;
  bool ran_sweep = false;
  const std::string tag = sim::lsq_choice_name(cfg.lsq);

  try {
  if (!replay_path.empty()) {
    // Replay recorded SAMT traces through the supervised sweep: workers
    // sweeping one file share a single source via the trace cache.
    std::vector<sim::Job> jobs;
    for (const auto& file : collect_files(replay_path, {".samt"})) {
      const trace::SamtHeader header = trace::read_samt_header(file);
      sim::Job job;
      job.program = header.name[0] != '\0'
                        ? std::string(header.name,
                                      ::strnlen(header.name, sizeof header.name))
                        : std::filesystem::path(file).stem().string();
      job.config = cfg;
      job.config.trace_path = file;
      if (!insts_given) job.config.instructions = header.count;
      job.tag = tag;
      jobs.push_back(std::move(job));
    }
    report = sim::run_sweep(jobs, sweep);
    ran_sweep = true;
  } else if (!import_path.empty()) {
    // Text import: materialize each trace once, optionally convert it to
    // SAMT v2, and run it in place. Fail-fast: a malformed text trace is a
    // fatal (exit 1) error, not a sweep outcome.
    std::uint64_t file_idx = 0;
    for (const auto& file : collect_files(import_path, {".txt", ".trace"})) {
      const trace::Trace src = trace::import_text_trace(file);
      if (!record_dir.empty()) {
        const auto out = std::filesystem::path(record_dir) /
                         (std::filesystem::path(file).stem().string() + ".samt");
        // Import-only injected faults target this file by index; arm
        // them on the *final* path — the writer consumes the fault
        // after the blocks, keyed by the name it renames into.
        for (const ImportFault& f : import_faults) {
          if (f.file == file_idx) trace::set_io_fault(out.string(), f.io);
        }
        trace::write_samt_v2(out.string(), src, src.name, src.seed);
        std::cerr << "recorded " << out.string() << " (" << src.size()
                  << " ops)\n";
      }
      ++file_idx;
      sim::SimConfig run_cfg = cfg;
      if (!insts_given) run_cfg.instructions = src.size();
      sim::JobResult jr;
      jr.job = sim::Job{std::filesystem::path(file).stem().string(), run_cfg, tag};
      jr.result = sim::run_simulation(run_cfg, src);
      results.push_back(std::move(jr));
    }
  } else {
    if (programs.empty()) programs = trace::spec2000_names();
    for (const auto& p : programs) {
      try {
        (void)trace::spec2000_profile(p);
      } catch (const std::out_of_range&) {
        usage_error("unknown program '" + p + "'");
      }
    }
    if (!record_dir.empty()) {
      // Record mode: write every program's trace on the sweep's worker
      // count, then run the suite through the normal generated path (the
      // sweep's trace cache regenerates the identical traces) —
      // replaying the files must be bit-identical to these results, and
      // the CI smoke step asserts exactly that.
      const unsigned workers =
          sweep.isolate_procs != 0 ? sweep.isolate_procs
          : sweep.threads != 0     ? sweep.threads
                                   : sim::bench_threads();
      record_programs(programs, cfg, record_dir, workers);
    }
    std::vector<sim::Job> jobs;
    jobs.reserve(programs.size());
    for (const auto& p : programs) {
      jobs.push_back(sim::Job{p, cfg, tag});
    }
    report = sim::run_sweep(jobs, sweep);
    ran_sweep = true;
  }
  } catch (const sim::CheckpointError& e) {
    std::cerr << "samie_sim: " << e.what() << "\n";
    return 1;
  } catch (const trace::TraceFormatError& e) {
    std::cerr << "samie_sim: " << e.what() << "\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    // run_sweep's pre-flight validation (e.g. an isolation-only fault
    // kind without --isolate, or an oom fault without --job-mem-mb).
    std::cerr << "samie_sim: " << e.what() << "\n";
    return 1;
  }

  if (ran_sweep) {
    // Completed jobs only, in job order: a failed/timed-out/skipped job
    // never fabricates an output row.
    for (sim::SweepJobResult& jr : report.jobs) {
      if (jr.completed()) {
        results.push_back(sim::JobResult{std::move(jr.job), jr.result});
      }
    }
    if (!report.all_completed() || report.resumed != 0 ||
        report.checkpoint_lines_ignored != 0) {
      sim::print_failure_report(std::cerr, report);
    }
  }

  if (csv) {
    std::cout << "program,lsq,instructions,cycles,ipc,mispredict_squashes,"
                 "deadlock_flushes,forwarded_loads,lsq_energy_nj,"
                 "lsq_distrib_nj,lsq_shared_nj,lsq_addrbuf_nj,lsq_bus_nj,"
                 "dcache_energy_nj,dtlb_energy_nj,dcache_way_known,"
                 "dcache_full,dtlb_cached,dtlb_accesses,shared_occ_mean,"
                 "buffer_busy_frac,area_total,value_mismatches\n";
    for (const auto& r : results) {
      const auto& s = r.result;
      std::cout << r.job.program << ',' << r.job.tag << ','
                << s.core.committed << ',' << s.core.cycles << ','
                << s.core.ipc << ',' << s.core.mispredict_squashes << ','
                << s.core.deadlock_flushes << ',' << s.core.forwarded_loads
                << ',' << s.lsq_energy_nj << ',' << s.lsq_distrib_nj << ','
                << s.lsq_shared_nj << ',' << s.lsq_addrbuf_nj << ','
                << s.lsq_bus_nj << ',' << s.dcache_energy_nj << ','
                << s.dtlb_energy_nj << ',' << s.core.dcache_way_known << ','
                << s.core.dcache_full << ',' << s.core.dtlb_cached << ','
                << s.core.dtlb_accesses << ',' << s.shared_occupancy_mean
                << ',' << s.buffer_nonempty_frac << ',' << s.area_total << ','
                << s.core.value_mismatches << '\n';
    }
    return ran_sweep ? sim::sweep_exit_code(report) : 0;
  }

  Table t({"program", "IPC", "LSQ uJ", "Dcache uJ", "DTLB uJ", "deadlk/Mcyc",
           "fwd loads", "mismatch"});
  for (const auto& r : results) {
    const auto& s = r.result;
    t.add_row({r.job.program, Table::num(s.core.ipc),
               Table::num(s.lsq_energy_nj / 1e3),
               Table::num(s.dcache_energy_nj / 1e3),
               Table::num(s.dtlb_energy_nj / 1e3),
               Table::num(s.deadlocks_per_mcycle(), 1),
               std::to_string(s.core.forwarded_loads),
               std::to_string(s.core.value_mismatches)});
  }
  std::cout << "LSQ: " << sim::lsq_choice_name(cfg.lsq) << ", ";
  if (!replay_path.empty() || !import_path.empty()) {
    std::cout << results.size() << " replayed trace"
              << (results.size() == 1 ? "" : "s") << "\n";
  } else {
    std::cout << cfg.instructions << " instructions/program\n";
  }
  t.print(std::cout);
  return ran_sweep ? sim::sweep_exit_code(report) : 0;
}
