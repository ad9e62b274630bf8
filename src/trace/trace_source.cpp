#include "src/trace/trace_source.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <utility>

namespace samie::trace {

namespace {

[[nodiscard]] std::size_t page_size() noexcept {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

[[nodiscard]] std::size_t round_to_pages(std::size_t bytes) noexcept {
  return (bytes + page_size() - 1) & ~(page_size() - 1);
}

}  // namespace

TraceSource::PageBytes::PageBytes(std::size_t capacity) {
  if (capacity == 0) return;
  const std::size_t len = round_to_pages(capacity);
  void* map = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  // 4 KiB pages whatever the host's transparent huge page setting: a
  // huge page would make the untouched rest of its 2 MiB resident.
  (void)::madvise(map, len, MADV_NOHUGEPAGE);
  map_ = static_cast<unsigned char*>(map);
  map_len_ = len;
  size_ = capacity;
}

TraceSource::PageBytes::PageBytes(PageBytes&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      size_(std::exchange(other.size_, 0)) {}

TraceSource::PageBytes& TraceSource::PageBytes::operator=(
    PageBytes&& other) noexcept {
  if (this != &other) {
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

TraceSource::PageBytes::~PageBytes() { unmap(); }

void TraceSource::PageBytes::shrink_to(std::size_t size) noexcept {
  size = std::min(size, size_);
  const std::size_t len = round_to_pages(size);
  if (len == 0) {
    unmap();
    return;
  }
  if (len < map_len_) ::munmap(map_ + len, map_len_ - len);
  map_len_ = len;
  size_ = size;
}

void TraceSource::PageBytes::unmap() noexcept {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  map_ = nullptr;
  map_len_ = 0;
  size_ = 0;
}

TraceSource::TraceSource(Storage storage, std::uint64_t size,
                         std::uint32_t max_block_records, std::string name,
                         std::uint64_t seed)
    : storage_(std::move(storage)),
      size_(static_cast<std::size_t>(size)),
      max_block_records_(max_block_records),
      name_(std::move(name)),
      seed_(seed),
      flat_(std::make_unique<Flat>()) {}

TraceSource TraceSource::generate(const WorkloadProfile& profile,
                                  std::uint64_t seed, std::uint64_t n) {
  PageBytes bytes(max_encoded_bytes(n, kDefaultBlockRecords));
  WorkloadGenerator gen(profile, seed);
  bytes.shrink_to(encode_blocks(n, kDefaultBlockRecords, bytes.data(),
                                [&gen](MicroOp* dst, std::size_t k) {
                                  gen.generate_into(dst, k);
                                }));
  return TraceSource(std::move(bytes), n,
                     static_cast<std::uint32_t>(std::min<std::uint64_t>(
                         n, kDefaultBlockRecords)),
                     profile.name, seed);
}

TraceSource TraceSource::open_samt(const std::string& path,
                                   bool /*verify_checksum*/) {
  const TraceV2Reader reader(path);
  return TraceSource(reader.read_blocks_in_domain(), reader.record_count(),
                     reader.max_block_records(), reader.name(),
                     reader.header().seed);
}

std::span<const unsigned char> TraceSource::blocks() const noexcept {
  if (const auto* pages = std::get_if<PageBytes>(&storage_)) {
    return pages->bytes();
  }
  return *std::get_if<std::vector<unsigned char>>(&storage_);
}

TraceView TraceSource::view() const {
  std::call_once(flat_->once, [this] {
    flat_->ops.resize(size_);
    const std::span<const unsigned char> b = blocks();
    for (std::size_t at = 0; at < b.size();) {
      const SamtBlockHeader h = decode_resident_block(
          b.data() + at, flat_->ops.data(), ~std::uint64_t{0});
      at += sizeof h + h.payload_bytes;
    }
  });
  return {flat_->ops.data(), flat_->ops.size()};
}

}  // namespace samie::trace
