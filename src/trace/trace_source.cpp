#include "src/trace/trace_source.h"

#include <optional>
#include <utility>

namespace samie::trace {

namespace {

/// Throws TraceCorruptError(kInteriorCorrupt) naming the first record of
/// a v1 file's `ops` outside the record domain (record_domain_violation),
/// with kNoBlock and the record's own offset. (A v2 file's records are
/// checked while their blocks decode: TraceV2Reader::read_all_in_domain.)
void require_record_domain(const std::string& path, TraceView ops) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const char* why = record_domain_violation(ops[i]);
    if (why == nullptr) continue;
    const std::uint64_t offset = sizeof(SamtHeader) + i * sizeof(MicroOp);
    throw TraceCorruptError(path + ": record " + std::to_string(i) +
                                " at offset " + std::to_string(offset) +
                                ": " + why,
                            TraceDamage::kInteriorCorrupt,
                            TraceCorruptError::kNoBlock, offset);
  }
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
  if (const std::optional<TraceV2Reader> v2 = TraceV2Reader::open_if_v2(path)) {
    return from_trace(v2->read_all_in_domain());
  }
  MappedTrace mapped(path, verify_checksum);
  require_record_domain(path, mapped.view());
  std::string name = mapped.name();
  const std::uint64_t seed = mapped.header().seed;
  return TraceSource(std::move(mapped), std::move(name), seed);
}

TraceSource TraceSource::read_samt(const std::string& path) {
  if (const std::optional<TraceV2Reader> v2 = TraceV2Reader::open_if_v2(path)) {
    return from_trace(v2->read_all_in_domain());
  }
  Trace t = TraceReader(path).read_all();
  require_record_domain(path, t);
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
