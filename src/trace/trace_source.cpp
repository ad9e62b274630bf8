#include "src/trace/trace_source.h"

#include <utility>

namespace samie::trace {

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
    return from_trace(TraceV2Reader(path).read_all());
  }
  MappedTrace mapped(path, verify_checksum);
  std::string name = mapped.name();
  const std::uint64_t seed = mapped.header().seed;
  return TraceSource(std::move(mapped), std::move(name), seed);
}

TraceSource TraceSource::read_samt(const std::string& path) {
  if (read_samt_header(path).version == kSamtVersion2) {
    return from_trace(TraceV2Reader(path).read_all());
  }
  return from_trace(TraceReader(path).read_all());
}

TraceSource TraceSource::import_text(const std::string& path) {
  return from_trace(import_text_trace(path));
}

TraceView TraceSource::view() const noexcept {
  if (const auto* owned = std::get_if<Trace>(&storage_)) return *owned;
  return std::get<MappedTrace>(storage_).view();
}

}  // namespace samie::trace
