// trace_inspector: print the statistical properties of a workload that
// determine how well SAMIE-LSQ will do on it — instruction mix, in-flight
// cache-line sharing, and DistribLSQ bank concentration (the two
// observations Section 1 of the paper is built on).
//
//   ./trace_inspector [--verify] [program | trace.samt ...]
//
// Arguments naming a file are opened as recorded SAMT traces: the header
// (version, record count, provenance, checksum) is dumped and the same
// statistics are computed over the records (v2 block-decoded, v1
// converted as read). Other arguments are SPEC2000 profile names.
//
// --verify mode instead deep-walks each named SAMT file checking every
// integrity guard (v1: whole-file checksum; v2: footer, index and every
// block guard) and prints a per-block status line plus, on damage, the
// damage class and the file offset of the first corrupt byte. Exit
// status: 0 when every file verified clean, 2 when any file is damaged,
// 1 on usage errors or files that are not SAMT traces at all.
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/trace/analysis.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"

namespace {

using namespace samie;

void dump_samt_header(const std::string& path, const trace::SamtHeader& h) {
  std::ostringstream sum;
  sum << std::hex << std::setw(16) << std::setfill('0') << h.checksum;
  std::cout << path << ":\n"
            << "  magic        SAMTRACE (v" << h.version << ")\n"
            << "  name         "
            << std::string(h.name, ::strnlen(h.name, sizeof h.name)) << "\n"
            << "  records      " << h.count << " x " << h.record_bytes
            << " bytes\n"
            << "  seed         " << h.seed << "\n"
            << "  checksum     0x" << sum.str() << " (fnv1a-64)\n";
}

/// --verify: full integrity walk of one SAMT file. Returns 0 (clean) or
/// 2 (damaged); exits 1 if the file is not a SAMT trace at all.
int verify_file(const std::string& path) {
  trace::TraceHealth h;
  try {
    h = trace::trace_health(path);
  } catch (const trace::TraceFormatError& e) {
    std::cerr << "trace_inspector: " << path << ": " << e.what() << "\n";
    std::exit(1);
  }
  std::cout << path << ": v" << h.version << ", " << h.record_count
            << " records, " << h.blocks.size() << " blocks\n";
  for (std::size_t i = 0; i < h.blocks.size(); ++i) {
    const trace::BlockHealth& b = h.blocks[i];
    std::cout << "  block " << i << ": records [" << b.first_record << ", "
              << (b.first_record + b.record_count) << ") @ offset "
              << b.file_offset << "  " << (b.ok ? "ok" : "CORRUPT") << "\n";
  }
  if (h.ok()) {
    std::cout << "  verdict: clean\n";
    return 0;
  }
  std::cout << "  verdict: DAMAGED (" << trace::trace_damage_name(h.damage)
            << "), " << h.bad_blocks << " bad block"
            << (h.bad_blocks == 1 ? "" : "s")
            << ", first corrupt byte at offset " << h.first_bad_offset
            << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") verify = true;
    else args.emplace_back(arg);
  }
  if (verify) {
    if (args.empty()) {
      std::cerr << "trace_inspector: --verify wants SAMT file paths\n";
      return 1;
    }
    int worst = 0;
    for (const auto& arg : args) worst = std::max(worst, verify_file(arg));
    return worst;
  }
  if (args.empty()) args = trace::spec2000_names();

  constexpr std::uint64_t kInsts = 100'000;
  constexpr std::size_t kWindow = 96;  // ~in-flight memory instructions

  Table t({"program", "load%", "store%", "branch%", "reuse frac",
           "acc/line", "max lines/bank", "distinct lines"});
  for (const auto& arg : args) {
    trace::TraceSource src = [&]() -> trace::TraceSource {
      try {
        // Only a regular file can be a SAMT trace; a stray *directory*
        // named like a program must not shadow the profile.
        if (std::filesystem::is_regular_file(arg)) {
          trace::TraceSource s = trace::TraceSource::open_samt(arg);
          dump_samt_header(arg, trace::read_samt_header(arg));
          return s;
        }
        return trace::TraceSource::generate(trace::spec2000_profile(arg), 7,
                                            kInsts);
      } catch (const std::exception& e) {
        std::cerr << "trace_inspector: " << arg
                  << ": not a SAMT file or SPEC2000 program (" << e.what()
                  << ")\n";
        std::exit(1);
      }
    }();
    const trace::TraceView tr = src.view();
    const trace::MixStats mix = trace::compute_mix(tr);
    const trace::SharingStats sh = trace::compute_sharing(tr, kWindow);
    const trace::BankSpreadStats bk = trace::compute_bank_spread(tr, kWindow, 64);
    t.add_row({src.name().empty() ? arg : src.name(),
               Table::num(mix.load_frac * 100, 1),
               Table::num(mix.store_frac * 100, 1),
               Table::num(mix.branch_frac * 100, 1),
               Table::num(sh.reuse_fraction, 2),
               Table::num(sh.accesses_per_line, 2),
               Table::num(bk.max_lines_per_bank, 1),
               Table::num(bk.mean_distinct_lines, 1)});
  }
  t.print(std::cout);
  std::cout
      << "\nreuse frac   — fraction of in-window accesses whose line was\n"
         "               already touched (drives Dcache/DTLB reuse, Fig 9/10)\n"
         "max lines/bank — in-flight lines colliding on one DistribLSQ bank\n"
         "               (drives SharedLSQ pressure and deadlocks, Fig 3/6)\n";
  return 0;
}
