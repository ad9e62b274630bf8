// TraceSource: one owner type for trace storage of any provenance.
//
// The simulator, tools and benches all consume TraceView; a TraceSource
// pairs such a view with whatever keeps it alive — a generated trace's
// own anonymous page mapping, or an owned in-RAM Trace (decoded from a
// SAMT file of either version, or imported). Sweep infrastructure holds
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
  /// Opens a SAMT file, autodetecting the version by its header, into
  /// an owned Trace: v2 decodes its guarded blocks through the
  /// descriptor that read the header (TraceV2Reader::read_all_in_domain),
  /// v1 converts its 40-byte records as it reads them
  /// (TraceReader::read_all). Throws TraceFormatError on malformed files
  /// (TraceCorruptError for damaged v2 files). `verify_checksum = false`
  /// skips v1's whole-file checksum pass, for replay hot paths that
  /// re-open an already-verified trace (v2 blocks are always verified —
  /// their guards are checked as a side effect of decoding). Either
  /// way, every record is checked against the record domain
  /// (record_domain_violation in instruction.h, and for v1 the records
  /// no MicroOp can hold): a record outside it throws
  /// TraceCorruptError(kInteriorCorrupt) naming it — with its block and
  /// the block's offset for v2, kNoBlock and its own offset for v1.
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
