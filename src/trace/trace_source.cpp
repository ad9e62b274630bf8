#include "src/trace/trace_source.h"

#include <sys/mman.h>

#include <cstdint>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>

namespace samie::trace {

namespace {

/// The transparent huge page size (x86-64 and arm64 with 4 KiB pages).
constexpr std::size_t kHugePage = std::size_t{2} << 20;

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

TraceSource::PageRecords::PageRecords(std::uint64_t count) {
  if (count == 0) return;
  if (count > (SIZE_MAX - 2 * kHugePage) / sizeof(MicroOp)) {
    throw std::length_error("trace of " + std::to_string(count) +
                            " records exceeds the address space");
  }
  const std::size_t len =
      (count * sizeof(MicroOp) + kHugePage - 1) & ~(kHugePage - 1);
  // Map one huge page extra, then trim both ends to a 2 MiB boundary.
  const std::size_t span = len + kHugePage;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (base + kHugePage - 1) & ~(kHugePage - 1);
  const std::size_t head = aligned - base;  // below kHugePage
  if (head != 0) ::munmap(raw, head);
  ::munmap(reinterpret_cast<void*>(aligned + len), kHugePage - head);
  map_ = reinterpret_cast<void*>(aligned);
  map_len_ = len;
  count_ = static_cast<std::size_t>(count);
  // Fewer page faults and TLB misses. A kernel without transparent huge
  // pages refuses the advice, which leaves ordinary pages; no error.
  (void)::madvise(map_, map_len_, MADV_HUGEPAGE);
}

TraceSource::PageRecords::PageRecords(PageRecords&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      count_(std::exchange(other.count_, 0)) {}

TraceSource::PageRecords& TraceSource::PageRecords::operator=(
    PageRecords&& other) noexcept {
  if (this != &other) {
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    count_ = std::exchange(other.count_, 0);
  }
  return *this;
}

TraceSource::PageRecords::~PageRecords() { unmap(); }

void TraceSource::PageRecords::unmap() noexcept {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  map_ = nullptr;
  map_len_ = 0;
  count_ = 0;
}

TraceSource TraceSource::generate(const WorkloadProfile& profile,
                                  std::uint64_t seed, std::uint64_t n) {
  PageRecords records(n);
  WorkloadGenerator(profile, seed).generate_into(records.data(), n);
  return TraceSource(std::move(records), profile.name, seed);
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
  if (const auto* pages = std::get_if<PageRecords>(&storage_)) {
    return pages->view();
  }
  if (const auto* owned = std::get_if<Trace>(&storage_)) return *owned;
  return std::get<MappedTrace>(storage_).view();
}

}  // namespace samie::trace
