// perf_report: the repo's performance-trajectory tool.
//
//   perf_report [options]
//
//   --insts=N       instructions per program (default 200000)
//   --seed=N        workload seed (default 42)
//   --repeats=N     timed simulations per (lsq, program); best wall kept
//                   (default 3)
//   --out=PATH      output file (default BENCH_hotpath.json in the cwd)
//   --programs=a,b  comma-separated SPEC2000 subset (default: whole suite)
//   --lsq=K         restrict to one LSQ (conventional|arb|samie);
//                   default: all three
//   --trace-dir=D   sweep the recorded *.samt traces in D (v1 or v2)
//                   instead of generating synthetic workloads; replays
//                   each trace in full (--insts/--seed are ignored)
//   --no-skip       measure the always-step cycle loop (disables the
//                   quiescent-cycle fast-forward; statistics identical,
//                   skip_ratio reads 0)
//   --resume=FILE   journal each finished (lsq, program) measurement to
//                   FILE (crash-safe) and, when FILE already exists for
//                   the same configuration, load its measurements instead
//                   of re-running them
//
// Exit status: 0 on a clean run, 2 when some measurements failed (the
// per-measurement errors go to stderr and the JSON's "failures" array),
// 1 on usage or fatal errors.
//
// Runs the SPEC2000 suite under the requested LSQ organizations on a
// single thread (deterministic job order, stable timings) and writes
// BENCH_hotpath.json: simulated-cycles/second, per-program wall time, and
// peak RSS, plus the full deterministic statistics of every run so two
// reports can be diffed for bit-identical simulation results. Schema:
// docs/BENCH_hotpath.md. Whole-sweep wall time is perfbench's
// figure_sweep workload (perfbench/README.md), not this tool's.
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/sim/perf_harness.h"
#include "src/trace/spec2000.h"
#include "tools/cli_util.h"

namespace {

using namespace samie;

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "perf_report: " << what
            << " (see the header of tools/perf_report.cpp)\n";
  std::exit(1);
}

bool parse_u64(const std::string& arg, const char* key, std::uint64_t& out) {
  return tools::parse_u64(arg, key, out,
                          [](const std::string& what) { usage_error(what); });
}

}  // namespace

int main(int argc, char** argv) {
  sim::HotpathOptions opt;
  std::string out_path = "BENCH_hotpath.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t v = 0;
    if (parse_u64(arg, "--insts", v)) {
      opt.instructions = v;
    } else if (parse_u64(arg, "--seed", v)) {
      opt.seed = v;
    } else if (parse_u64(arg, "--repeats", v)) {
      opt.repeats = static_cast<std::uint32_t>(v);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--programs=", 0) == 0) {
      std::stringstream ss(arg.substr(11));
      std::string p;
      while (std::getline(ss, p, ',')) {
        if (!p.empty()) opt.programs.push_back(p);
      }
    } else if (arg.rfind("--trace-dir=", 0) == 0) {
      opt.trace_dir = arg.substr(12);
    } else if (arg.rfind("--resume=", 0) == 0) {
      opt.resume_path = arg.substr(9);
    } else if (arg == "--no-skip") {
      opt.always_step = true;
    } else if (arg.rfind("--lsq=", 0) == 0) {
      const std::string k = arg.substr(6);
      if (k == "conventional") opt.lsqs = {sim::LsqChoice::kConventional};
      else if (k == "arb") opt.lsqs = {sim::LsqChoice::kArb};
      else if (k == "samie") opt.lsqs = {sim::LsqChoice::kSamie};
      else usage_error("unknown LSQ kind '" + k + "'");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the header of tools/perf_report.cpp for options\n";
      return 0;
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }
  if (!opt.trace_dir.empty() && !opt.programs.empty()) {
    usage_error("--trace-dir and --programs are mutually exclusive");
  }
  for (const auto& p : opt.programs) {
    try {
      (void)trace::spec2000_profile(p);
    } catch (const std::out_of_range&) {
      usage_error("unknown program '" + p + "'");
    }
  }

  sim::HotpathReport report;
  try {
    report = sim::run_hotpath_measurement(opt);
  } catch (const std::exception& e) {
    std::cerr << "perf_report: " << e.what() << "\n";
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) usage_error("cannot open '" + out_path + "' for writing");
  sim::write_hotpath_json(out, report);

  for (const auto& lr : report.lsqs) {
    std::cout << sim::lsq_choice_name(lr.lsq) << ": "
              << lr.total_sim_cycles << " sim cycles in "
              << lr.total_wall_seconds << " s  ->  "
              << static_cast<std::uint64_t>(lr.sim_cycles_per_second)
              << " cycles/s (";
    if (report.no_skip) {
      // Always-step run: the fast-forward was disabled, so a skip
      // percentage would state a tautological 0 — name the mode instead.
      std::cout << "skip disabled";
    } else {
      const double skip = 100.0 * sim::skip_fraction(lr.total_skipped_cycles,
                                                     lr.total_sim_cycles);
      std::cout << skip << "% quiescent-skipped";
    }
    std::cout << ", peak RSS " << lr.peak_rss_kb << " kB)\n";
  }
  if (report.resumed != 0) {
    std::cout << report.resumed << " measurement"
              << (report.resumed == 1 ? "" : "s") << " resumed from "
              << opt.resume_path << "\n";
  }
  std::cout << "wrote " << out_path << "\n";
  for (const auto& f : report.failures) {
    std::cerr << "perf_report: " << f << "\n";
  }
  return report.failures.empty() ? 0 : 2;
}
