// samt_convert: converts a SAMT trace of either version to SAMT v2
// (block-guarded, delta-encoded, indexed) — the only version this build
// writes — with integrity verification on both ends. A v1 input (flat
// 40-byte record array) is upgraded; a v2 input is re-blocked.
//
//   samt_convert [options] <in.samt> <out.samt>
//
//   --block-records=N  records per output block (default 4096)
//   --no-verify        skip the post-write re-read of the output
//
// The input is fully decoded through its version's verifying reader
// (v1: header + whole-file FNV-1a checksum; v2: footer, index and every
// block guard), so a damaged input fails the conversion with a typed
// error instead of laundering corruption into a clean-looking output.
// After writing, the output is re-opened and verified the same way and
// its record stream compared byte-for-byte against the input's, so a
// conversion can never silently drop or alter records. The writer
// publishes atomically (tmp + fsync + rename): a failed conversion
// leaves no final file at the output path.
//
// Exit status: 0 on success, 1 on any error (usage, unreadable or
// damaged input, write failure, post-write verification mismatch).
#include <cstring>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/trace/trace_io.h"
#include "tools/cli_util.h"

namespace {

using namespace samie;

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "samt_convert: " << what
            << "\nusage: samt_convert [--block-records=N] [--no-verify]"
               " <in.samt> <out.samt>\n";
  std::exit(1);
}

/// Reads and fully verifies `path` with the reader matching its version.
trace::Trace read_verified(const std::string& path, std::uint32_t& version) {
  const trace::SamtHeader header = trace::read_samt_header(path);
  version = header.version;
  if (header.version == trace::kSamtVersion2) {
    return trace::TraceV2Reader(path).read_all();
  }
  return trace::TraceReader(path).read_all();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t block_records = trace::kDefaultBlockRecords;
  bool verify_output = true;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (tools::parse_u64(arg, "--block-records", block_records,
                         [](const std::string& w) { usage_error(w); })) {
      if (block_records == 0 || block_records > (1u << 24)) {
        usage_error("--block-records must be in [1, 2^24]");
      }
    } else if (arg == "--no-verify") {
      verify_output = false;
    } else if (arg.rfind("--", 0) == 0) {
      usage_error("unknown option '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) usage_error("expected exactly <in.samt> <out.samt>");
  const std::string& in_path = paths[0];
  const std::string& out_path = paths[1];
  if (in_path == out_path) {
    usage_error("input and output paths must differ (atomic rename target)");
  }

  try {
    std::uint32_t in_version = 0;
    const trace::Trace t = read_verified(in_path, in_version);
    trace::write_samt_v2(out_path, t, t.name, t.seed,
                         static_cast<std::uint32_t>(block_records));

    if (verify_output) {
      std::uint32_t out_version = 0;
      const trace::Trace back = read_verified(out_path, out_version);
      static_assert(
          std::has_unique_object_representations_v<trace::MicroOp>);
      const bool same =
          out_version == trace::kSamtVersion2 && back.name == t.name &&
          back.seed == t.seed && back.ops.size() == t.ops.size() &&
          (t.ops.empty() ||
           std::memcmp(back.ops.data(), t.ops.data(),
                       t.ops.size() * sizeof(trace::MicroOp)) == 0);
      if (!same) {
        std::cerr << "samt_convert: post-write verification mismatch: '"
                  << out_path << "' does not round-trip '" << in_path
                  << "'\n";
        return 1;
      }
    }
    std::cerr << "converted " << in_path << " (v" << in_version << ") -> "
              << out_path << " (v2), " << t.ops.size()
              << " records" << (verify_output ? ", verified" : "") << "\n";
  } catch (const trace::TraceFormatError& e) {
    std::cerr << "samt_convert: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
