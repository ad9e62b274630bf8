// Test-only SAMT v1 fixture writer. The tools write only SAMT v2, but v1
// stays a read format (TraceReader, MappedTrace, version autodetect), so
// the read tests need v1 files: the 64-byte header carrying the records'
// FNV-1a checksum, then the records verbatim, written with plain fwrite
// (no tmp file, rename, fsync or fault hooks).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/trace/trace_io.h"
#include "src/trace/trace_view.h"

namespace samie::fixture {

inline void write_samt_v1(const std::string& path, trace::TraceView ops,
                          const std::string& name, std::uint64_t seed) {
  trace::SamtHeader h{};
  std::memcpy(h.magic, trace::kSamtMagic, sizeof h.magic);
  h.version = trace::kSamtVersion;
  h.record_bytes = sizeof(trace::MicroOp);
  h.count = ops.size();
  h.seed = seed;
  h.checksum =
      trace::fnv1a_64(ops.data(), ops.size() * sizeof(trace::MicroOp));
  std::memcpy(h.name, name.data(), std::min(name.size(), sizeof h.name - 1));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot create " + path);
  const bool ok = std::fwrite(&h, sizeof h, 1, f) == 1 &&
                  (ops.empty() || std::fwrite(ops.data(), sizeof(trace::MicroOp),
                                              ops.size(), f) == ops.size());
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("cannot write " + path);
}

}  // namespace samie::fixture
