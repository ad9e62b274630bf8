// TraceSource: one owner type for a trace, held as its SAMT v2 blocks.
//
// A resident trace is its encoded v2 blocks (trace_io.h, "resident
// blocks"), about 9 bytes a record, not a flat array of 32-byte
// MicroOps: a lane decodes each block into a small ring when fetch
// reaches it (TraceWindow), so only the records near the fetch point are
// ever decoded at once. Sweep infrastructure holds
// `shared_ptr<const TraceSource>` so N workers replaying one program
// share one copy of its blocks instead of N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/trace/trace_io.h"
#include "src/trace/trace_view.h"
#include "src/trace/workload.h"

namespace samie::trace {

class TraceSource {
 public:
  /// Generates `n` instructions of the given profile (the records
  /// WorkloadGenerator(profile, seed).generate(n) returns), encoding each
  /// block as the generator fills a block-sized buffer, into an anonymous
  /// page mapping of the source's own, unmapped when the source is
  /// destroyed. A sweep builds and drops one trace after another on its
  /// workers; freed heap buffers that size would stay mapped in the
  /// workers' malloc arenas, these pages go back to the OS. Throws
  /// std::length_error for a length no address space holds and
  /// std::bad_alloc when the mapping fails.
  [[nodiscard]] static TraceSource generate(const WorkloadProfile& profile,
                                            std::uint64_t seed,
                                            std::uint64_t n);
  /// Opens a SAMT v2 file and keeps its blocks on the heap
  /// (TraceV2Reader(path).read_blocks_in_domain()): every block's guard
  /// is verified and every record is checked against the record domain
  /// (record_domain_violation in instruction.h) before the open returns.
  /// Throws TraceFormatError for a file that is not SAMT v2 (a version-1
  /// file included), TraceCorruptError for damage, and
  /// TraceCorruptError(kInteriorCorrupt) naming the record, its block and
  /// the block's offset for a record outside the domain.
  /// `verify_checksum` has no effect; it outlives the retired v1 format
  /// only because the benchmark harness still passes it.
  [[nodiscard]] static TraceSource open_samt(const std::string& path,
                                             bool verify_checksum = true);

  /// The records as one flat array, decoded from the blocks on the first
  /// call and kept until the source is destroyed: for callers that want
  /// random access (tools, tests, analysis). Thread-safe. A lane reads
  /// the blocks through a TraceWindow instead.
  [[nodiscard]] TraceView view() const;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// The resident trace: its v2 blocks, each a SamtBlockHeader and its
  /// payload, in record order.
  [[nodiscard]] std::span<const unsigned char> blocks() const noexcept;
  /// Records in the largest block (0 for an empty trace).
  [[nodiscard]] std::uint32_t max_block_records() const noexcept {
    return max_block_records_;
  }

 private:
  /// Bytes in a private anonymous mapping, unmapped on destruction. The
  /// mapping reserves address space for the most bytes an encode can
  /// write; only the pages written become resident, and the whole pages
  /// past the bytes kept are unmapped.
  class PageBytes {
   public:
    explicit PageBytes(std::size_t capacity);
    PageBytes(PageBytes&& other) noexcept;
    PageBytes& operator=(PageBytes&& other) noexcept;
    PageBytes(const PageBytes&) = delete;
    PageBytes& operator=(const PageBytes&) = delete;
    ~PageBytes();

    [[nodiscard]] unsigned char* data() noexcept { return map_; }
    /// Keeps the first `size` bytes and unmaps the pages past them.
    void shrink_to(std::size_t size) noexcept;
    [[nodiscard]] std::span<const unsigned char> bytes() const noexcept {
      return {map_, size_};
    }

   private:
    void unmap() noexcept;

    unsigned char* map_ = nullptr;  ///< nullptr for no bytes
    std::size_t map_len_ = 0;
    std::size_t size_ = 0;
  };

  /// view()'s records, decoded once.
  struct Flat {
    std::once_flag once;
    std::vector<MicroOp> ops;
  };

  /// An opened file's blocks (heap) or a generated trace's (pages).
  using Storage = std::variant<std::vector<unsigned char>, PageBytes>;

  TraceSource(Storage storage, std::uint64_t size,
              std::uint32_t max_block_records, std::string name,
              std::uint64_t seed);

  Storage storage_;
  std::size_t size_ = 0;
  std::uint32_t max_block_records_ = 0;
  std::string name_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<Flat> flat_;
};

}  // namespace samie::trace
