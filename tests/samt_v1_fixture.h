// Test-only SAMT v1 fixture writer. The tools write only SAMT v2, but v1
// stays a read format (TraceReader, version autodetect), so the read
// tests need v1 files: the 64-byte header carrying the records' FNV-1a
// checksum, then each record's 40-byte v1 serialization, written with
// plain fwrite (no tmp file, rename, fsync or fault hooks).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/trace/trace_io.h"
#include "src/trace/trace_view.h"

namespace samie::fixture {

/// `op` as SAMT v1 lays it out: a branch's `addr` in br_target, any
/// other record's in mem_addr, as the v2 encoder splits them.
[[nodiscard]] inline trace::SamtV1Record v1_record(const trace::MicroOp& op) {
  trace::SamtV1Record r;
  r.pc = op.pc;
  (op.op == trace::OpClass::kBranch ? r.br_target : r.mem_addr) = op.addr;
  r.value = op.value;
  r.op = static_cast<std::uint8_t>(op.op);
  r.mem_size = op.mem_size;
  r.src1 = op.src1;
  r.src2 = op.src2;
  r.dst = op.dst;
  r.taken = op.taken ? 1 : 0;
  return r;
}

[[nodiscard]] inline std::vector<trace::SamtV1Record> v1_records(
    trace::TraceView ops) {
  std::vector<trace::SamtV1Record> out;
  out.reserve(ops.size());
  for (const trace::MicroOp& op : ops) out.push_back(v1_record(op));
  return out;
}

/// Writes `records` verbatim as a v1 file.
inline void write_samt_v1(const std::string& path,
                          const std::vector<trace::SamtV1Record>& records,
                          const std::string& name, std::uint64_t seed) {
  constexpr std::size_t kBytes = trace::kSamtRecordBytes;
  trace::SamtHeader h{};
  std::memcpy(h.magic, trace::kSamtMagic, sizeof h.magic);
  h.version = trace::kSamtVersion;
  h.record_bytes = trace::kSamtRecordBytes;
  h.count = records.size();
  h.seed = seed;
  h.checksum = trace::fnv1a_64(records.data(), records.size() * kBytes);
  std::memcpy(h.name, name.data(), std::min(name.size(), sizeof h.name - 1));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot create " + path);
  const bool ok =
      std::fwrite(&h, sizeof h, 1, f) == 1 &&
      (records.empty() ||
       std::fwrite(records.data(), kBytes, records.size(), f) == records.size());
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("cannot write " + path);
}

inline void write_samt_v1(const std::string& path, trace::TraceView ops,
                          const std::string& name, std::uint64_t seed) {
  write_samt_v1(path, v1_records(ops), name, seed);
}

}  // namespace samie::fixture
