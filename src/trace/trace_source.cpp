#include "src/trace/trace_source.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <stdexcept>
#include <utility>

namespace samie::trace {

namespace {

/// The transparent huge page size (x86-64 and arm64 with 4 KiB pages).
constexpr std::size_t kHugePage = std::size_t{2} << 20;

}  // namespace

TraceSource::PageRecords::PageRecords(std::uint64_t count) {
  if (count == 0) return;
  if (count > (SIZE_MAX - 2 * kHugePage) / sizeof(MicroOp)) {
    throw std::length_error("trace of " + std::to_string(count) +
                            " records exceeds the address space");
  }
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t len = (count * sizeof(MicroOp) + page - 1) & ~(page - 1);
  // Map one huge page extra, then trim the head to a 2 MiB boundary and
  // the tail to `len`.
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
  // Fewer page faults and TLB misses for the whole 2 MiB extents. A
  // kernel without transparent huge pages refuses the advice, which
  // leaves ordinary pages; no error.
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
                                   bool /*verify_checksum*/) {
  return from_trace(TraceV2Reader(path).read_all_in_domain());
}

TraceSource TraceSource::import_text(const std::string& path) {
  return from_trace(import_text_trace(path));
}

TraceView TraceSource::view() const noexcept {
  if (const auto* pages = std::get_if<PageRecords>(&storage_)) {
    return pages->view();
  }
  return std::get<Trace>(storage_);
}

}  // namespace samie::trace
