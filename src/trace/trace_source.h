// TraceSource: one owner type for trace storage of any provenance.
//
// The simulator, tools and benches all consume TraceView; a TraceSource
// pairs such a view with whatever keeps it alive — a generated trace's
// own anonymous page mapping, or an owned in-RAM Trace (decoded from a
// SAMT v2 file, or imported). Sweep infrastructure holds
// `shared_ptr<const TraceSource>` so N workers replaying one program
// share one copy of its records instead of N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>

#include "src/trace/trace_io.h"
#include "src/trace/trace_view.h"
#include "src/trace/workload.h"

namespace samie::trace {

class TraceSource {
 public:
  /// Generates `n` instructions of the given profile (the records
  /// WorkloadGenerator(profile, seed).generate(n) returns) into an
  /// anonymous page mapping of the source's own, unmapped when the
  /// source is destroyed. A sweep builds and drops one trace after
  /// another on its workers; freed heap buffers that size would stay
  /// mapped in the workers' malloc arenas, these pages go back to the
  /// OS. Throws std::bad_alloc when the mapping fails.
  [[nodiscard]] static TraceSource generate(const WorkloadProfile& profile,
                                            std::uint64_t seed,
                                            std::uint64_t n);
  /// Takes ownership of an existing trace.
  [[nodiscard]] static TraceSource from_trace(Trace t);
  /// Opens a SAMT v2 file into an owned Trace
  /// (TraceV2Reader(path).read_all_in_domain()): every block's guard is
  /// verified as it decodes, and every record is checked against the
  /// record domain (record_domain_violation in instruction.h). Throws
  /// TraceFormatError for a file that is not SAMT v2 (a version-1 file
  /// included), TraceCorruptError for damage, and
  /// TraceCorruptError(kInteriorCorrupt) naming the record, its block
  /// and the block's offset for a record outside the domain.
  /// `verify_checksum` has no effect; it outlives the retired v1 format
  /// only because the benchmark harness still passes it.
  [[nodiscard]] static TraceSource open_samt(const std::string& path,
                                             bool verify_checksum = true);
  /// Imports a plain-text trace (grammar: docs/TRACE_FORMAT.md).
  [[nodiscard]] static TraceSource import_text(const std::string& path);

  [[nodiscard]] TraceView view() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return view().size(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  /// `count` records in a private anonymous mapping of their bytes
  /// rounded up to whole pages, from a 2 MiB-aligned start: transparent
  /// huge pages can back every whole 2 MiB extent, and 4 KiB pages the
  /// tail. Munmapped on destruction.
  class PageRecords {
   public:
    explicit PageRecords(std::uint64_t count);
    PageRecords(PageRecords&& other) noexcept;
    PageRecords& operator=(PageRecords&& other) noexcept;
    PageRecords(const PageRecords&) = delete;
    PageRecords& operator=(const PageRecords&) = delete;
    ~PageRecords();

    [[nodiscard]] MicroOp* data() noexcept {
      return static_cast<MicroOp*>(map_);
    }
    [[nodiscard]] TraceView view() const noexcept {
      return {static_cast<const MicroOp*>(map_), count_};
    }

   private:
    void unmap() noexcept;

    void* map_ = nullptr;  ///< nullptr for an empty trace
    std::size_t map_len_ = 0;
    std::size_t count_ = 0;
  };

  using Storage = std::variant<Trace, PageRecords>;

  TraceSource(Storage storage, std::string name, std::uint64_t seed)
      : storage_(std::move(storage)), name_(std::move(name)), seed_(seed) {}

  Storage storage_;
  std::string name_;
  std::uint64_t seed_ = 0;
};

}  // namespace samie::trace
