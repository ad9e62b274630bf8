// samt_convert: re-blocks a SAMT v2 trace (block-guarded, delta-encoded,
// indexed), with integrity verification on both ends.
//
//   samt_convert [options] <in.samt> <out.samt>
//
//   --block-records=N  records per output block (default 4096)
//   --no-verify        skip the post-write re-read of the output
//
// The input is opened the way a replay opens it (TraceSource::open_samt:
// footer, index and every block guard verified, every record checked
// against the record domain), so a damaged input, or one no replay
// accepts, fails the conversion with a typed error instead of laundering
// it into a clean-looking output. After writing, the output is re-opened
// and verified the same way and its record stream compared byte-for-byte
// against the input's, so a conversion can never silently drop or alter
// records. The writer publishes atomically (tmp + fsync + rename): a
// failed conversion leaves no final file at the output path.
//
// A version-1 input is refused with the error every reader gives it,
// which names the last commit whose samt_convert upgrades v1 to v2.
//
// Exit status: 0 on success, 1 on any error (usage, unreadable or
// damaged input, write failure, post-write verification mismatch).
#include <cstring>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "tools/cli_util.h"

namespace {

using namespace samie;

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "samt_convert: " << what
            << "\nusage: samt_convert [--block-records=N] [--no-verify]"
               " <in.samt> <out.samt>\n";
  std::exit(1);
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
    const trace::TraceSource in = trace::TraceSource::open_samt(in_path);
    const trace::TraceView ops = in.view();
    trace::write_samt_v2(out_path, ops, in.name(), in.seed(),
                         static_cast<std::uint32_t>(block_records));

    if (verify_output) {
      const trace::TraceSource back = trace::TraceSource::open_samt(out_path);
      static_assert(
          std::has_unique_object_representations_v<trace::MicroOp>);
      const bool same =
          back.name() == in.name() && back.seed() == in.seed() &&
          back.size() == ops.size() &&
          (ops.empty() ||
           std::memcmp(back.view().data(), ops.data(),
                       ops.size() * sizeof(trace::MicroOp)) == 0);
      if (!same) {
        std::cerr << "samt_convert: post-write verification mismatch: '"
                  << out_path << "' does not round-trip '" << in_path
                  << "'\n";
        return 1;
      }
    }
    std::cerr << "converted " << in_path << " -> " << out_path << ", "
              << ops.size() << " records"
              << (verify_output ? ", verified" : "") << "\n";
  } catch (const trace::TraceFormatError& e) {
    std::cerr << "samt_convert: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
