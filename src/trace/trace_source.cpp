#include "src/trace/trace_source.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace samie::trace {

namespace {

/// Throws TraceCorruptError(kInteriorCorrupt) naming the first record of
/// `ops` outside the record domain (record_domain_violation). `index` is
/// a v2 file's block index, and the error names the record's block and
/// that block's file offset; for v1 it is empty, and the error carries
/// kNoBlock and the record's own offset.
void require_record_domain(const std::string& path, TraceView ops,
                           const std::vector<SamtIndexEntry>& index) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const char* why = record_domain_violation(ops[i]);
    if (why == nullptr) continue;
    const std::string record = "record " + std::to_string(i);
    if (index.empty()) {
      const std::uint64_t offset = sizeof(SamtHeader) + i * sizeof(MicroOp);
      throw TraceCorruptError(path + ": " + record + " at offset " +
                                  std::to_string(offset) + ": " + why,
                              TraceDamage::kInteriorCorrupt,
                              TraceCorruptError::kNoBlock, offset);
    }
    const auto block = std::partition_point(
        index.begin(), index.end(), [i](const SamtIndexEntry& e) {
          return e.first_record + e.record_count <= i;
        });
    const auto b = static_cast<std::uint64_t>(block - index.begin());
    throw TraceCorruptError(path + ": block " + std::to_string(b) +
                                " at offset " +
                                std::to_string(block->file_offset) + ": " +
                                record + ": " + why,
                            TraceDamage::kInteriorCorrupt, b,
                            block->file_offset);
  }
}

/// Decodes a whole v2 file and checks its record domain.
[[nodiscard]] Trace read_v2(const std::string& path) {
  const TraceV2Reader reader(path);
  Trace t = reader.read_all();
  require_record_domain(path, t, reader.index());
  return t;
}

}  // namespace

TraceSource TraceSource::generate(const WorkloadProfile& profile,
                                  std::uint64_t seed, std::uint64_t n) {
  WorkloadGenerator gen(profile, seed);
  Trace t = gen.generate(n);
  return from_trace(std::move(t));
}

TraceSource TraceSource::from_trace(Trace t) {
  std::string name = t.name;
  const std::uint64_t seed = t.seed;
  return TraceSource(std::move(t), std::move(name), seed);
}

TraceSource TraceSource::open_samt(const std::string& path,
                                   bool verify_checksum) {
  if (read_samt_header(path).version == kSamtVersion2) {
    return from_trace(read_v2(path));
  }
  MappedTrace mapped(path, verify_checksum);
  require_record_domain(path, mapped.view(), {});
  std::string name = mapped.name();
  const std::uint64_t seed = mapped.header().seed;
  return TraceSource(std::move(mapped), std::move(name), seed);
}

TraceSource TraceSource::read_samt(const std::string& path) {
  if (read_samt_header(path).version == kSamtVersion2) {
    return from_trace(read_v2(path));
  }
  Trace t = TraceReader(path).read_all();
  require_record_domain(path, t, {});
  return from_trace(std::move(t));
}

TraceSource TraceSource::import_text(const std::string& path) {
  return from_trace(import_text_trace(path));
}

TraceView TraceSource::view() const noexcept {
  if (const auto* owned = std::get_if<Trace>(&storage_)) return *owned;
  return std::get<MappedTrace>(storage_).view();
}

}  // namespace samie::trace
