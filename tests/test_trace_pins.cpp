// Cross-version pins for trace acquisition: the generated records of
// every SPEC2000 profile and the SAMT v2 bytes written from them must
// hash to constants recorded once and never re-derived by the code
// under test. A generator or codec optimization that changes a single
// RNG draw, record field or file byte fails here, even when a build
// still round-trips its own output (TraceIoTest.RoundTripIsByteStable
// compares a build only with itself).
//
// Re-pin only for a change that is meant to alter the traces or the
// file format; the failure message prints the new table.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload.h"

namespace samie {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kRecords = 20'000;

/// FNV-1a 64 of, per program: the generated records in the 40-byte
/// serialization of serialize40 (the layout the records had in memory
/// when these were pinned), and the write_samt_v2 file at the default
/// block size and at 512 records.
struct Pin {
  const char* program;
  std::uint64_t records;
  std::uint64_t v2_default;
  std::uint64_t v2_512;
};

const Pin kPins[] = {
    {"ammp", 0xe3cdba2adba9d7f8ULL, 0x3ca04b7ca8d18224ULL,
     0x6a05ee769ff8f017ULL},
    {"applu", 0x4d96189ff9aa414aULL, 0xf485502ea98bcc1bULL,
     0x0ff2ed617cda7926ULL},
    {"apsi", 0x196a1740d7082677ULL, 0xbd16b4729f9492ccULL,
     0x276df8372598ffffULL},
    {"art", 0x0420c5d7d51d15b3ULL, 0x3c200130680d3bdcULL,
     0xc80104de04b69fcbULL},
    {"bzip2", 0x1fa9b6400577af5cULL, 0x2b2a74408e35b512ULL,
     0xd5b94caeb2dd848bULL},
    {"crafty", 0x1b76585d3a76bf82ULL, 0x4893eb4e907b73ffULL,
     0xa2c0bcdf59c063b3ULL},
    {"eon", 0x303ccf540dd374b7ULL, 0xa1c8920b61e4eb02ULL,
     0x9a824fd5410d1dc9ULL},
    {"equake", 0xc198ee56c215709cULL, 0x2a6678311a3c59bbULL,
     0xb169109d3407ba91ULL},
    {"facerec", 0x83cf662f9a44b492ULL, 0x39dda907337ef576ULL,
     0x95079e78c171d81dULL},
    {"fma3d", 0xeadc6248238905d7ULL, 0x14dc28b2eccb0086ULL,
     0xa3205f985c1096ecULL},
    {"galgel", 0x9013262056c73dcbULL, 0x8ef6bd0baf4a6ad3ULL,
     0x7b20d513dfe93fcaULL},
    {"gap", 0x4b92f5b36f196f4aULL, 0x192bc20644ee932eULL,
     0x766e80a95c0b7046ULL},
    {"gcc", 0x4d704a9d98663161ULL, 0xf91c4cb8007b9fe6ULL,
     0x169d4a3b9e340a3cULL},
    {"gzip", 0xaeaeca0fd1e4b95aULL, 0xeaf26263a040eaaeULL,
     0x36fe389350411384ULL},
    {"lucas", 0x6cd554777c34eed5ULL, 0x000f8745642296d1ULL,
     0x782b3074496fbbfeULL},
    {"mcf", 0x6848bafe7898986eULL, 0x17d726b3c0acfcc0ULL,
     0x0848ede4127b3cadULL},
    {"mesa", 0xb73d51d2e2138eabULL, 0x0ef609c244ef84a4ULL,
     0x55d99dd8c219985cULL},
    {"mgrid", 0xf0ad852dfd98a69cULL, 0x6781c203cf7ea235ULL,
     0x6a24cb0f7973e542ULL},
    {"parser", 0x593791f65101156dULL, 0x1a8d7c5cc3a590b8ULL,
     0x21eb8ad814906037ULL},
    {"perlbmk", 0xa533226ac3009914ULL, 0xc5d643d8072dca64ULL,
     0xeec9f9719f468cc4ULL},
    {"sixtrack", 0x50e906d067e7e266ULL, 0xcd24a216ca46d482ULL,
     0x481480c3ac46cf69ULL},
    {"swim", 0xd716262857de619eULL, 0x67485baa86aea92cULL,
     0x7ded307bc01efa05ULL},
    {"twolf", 0x2c0e1a2b59471127ULL, 0x4d8b636165b3b1a7ULL,
     0xa4c9b498207d515cULL},
    {"vortex", 0x23521568c0c6e0a1ULL, 0xfb1de646bb8ec527ULL,
     0xe73ab32297be65dbULL},
    {"vpr", 0x3a0db4ca379d46daULL, 0x3f8d30463c2ed0c6ULL,
     0x33f0333c5b25a5deULL},
    {"wupwise", 0xa86212d0a1a6125eULL, 0x7e933260b1d4a97cULL,
     0x8606f8e3304a1612ULL},
};

/// Each record as 40 little-endian bytes: pc, memory address, branch
/// target, value (8 bytes each; a branch's `addr` is its target, any
/// other record's its memory address), then op, mem_size, src1, src2,
/// dst, taken and two zero bytes. This is the pins' own serialization,
/// fixed so the record hashes never need re-deriving when the in-memory
/// record changes; no reader parses it.
[[nodiscard]] std::vector<unsigned char> serialize40(trace::TraceView ops) {
  std::vector<unsigned char> out(ops.size() * 40);
  unsigned char* p = out.data();
  for (const trace::MicroOp& op : ops) {
    const bool branch = op.op == trace::OpClass::kBranch;
    const std::uint64_t words[4] = {op.pc, branch ? 0 : op.addr,
                                    branch ? op.addr : 0, op.value};
    std::memcpy(p, words, sizeof words);
    p[32] = static_cast<unsigned char>(op.op);
    p[33] = op.mem_size;
    p[34] = op.src1;
    p[35] = op.src2;
    p[36] = op.dst;
    p[37] = op.taken ? 1 : 0;
    p += 40;  // bytes 38 and 39 stay zero
  }
  return out;
}

[[nodiscard]] std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return trace::fnv1a_64(bytes.data(), bytes.size());
}

TEST(TracePins, GeneratedRecordsAndV2BytesMatchPinnedHashes) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("samie_pins_" + std::to_string(static_cast<unsigned long>(::getpid())));
  fs::create_directories(dir);
  const std::string p = (dir / "t.samt").string();

  std::string table;
  std::vector<Pin> got;
  for (const std::string& name : trace::spec2000_names()) {
    trace::WorkloadGenerator gen(trace::spec2000_profile(name), kSeed);
    const trace::Trace t = gen.generate(kRecords);
    const std::vector<unsigned char> bytes = serialize40(t);
    Pin pin{nullptr, trace::fnv1a_64(bytes.data(), bytes.size()), 0, 0};
    trace::write_samt_v2(p, t, name, kSeed);
    pin.v2_default = file_hash(p);
    trace::write_samt_v2(p, t, name, kSeed, /*block_records=*/512);
    pin.v2_512 = file_hash(p);
    got.push_back(pin);
    char line[160];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL,\n     0x%016" PRIx64 "ULL},\n",
                  name.c_str(), pin.records, pin.v2_default, pin.v2_512);
    table += line;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  const std::vector<std::string>& names = trace::spec2000_names();
  ASSERT_EQ(std::size(kPins), names.size()) << "pinned table:\n" << table;
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(kPins[i].program, names[i]);
    EXPECT_EQ(got[i].records, kPins[i].records) << "generated records";
    EXPECT_EQ(got[i].v2_default, kPins[i].v2_default) << "v2, default blocks";
    EXPECT_EQ(got[i].v2_512, kPins[i].v2_512) << "v2, 512-record blocks";
  }
  if (HasFailure()) ADD_FAILURE() << "table at this build:\n" << table;
}

}  // namespace
}  // namespace samie
