// TraceSource: one owner type for trace storage of any provenance.
//
// The simulator, tools and benches all consume TraceView; a TraceSource
// pairs such a view with whatever keeps it alive — an owned in-RAM Trace
// (generated or imported) or an mmap-backed MappedTrace (zero-copy
// replay). Sweep infrastructure holds `shared_ptr<const TraceSource>` so
// N workers replaying one program share a single mapping instead of N
// ~70 MB heap copies.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "src/trace/trace_io.h"
#include "src/trace/trace_view.h"
#include "src/trace/workload.h"

namespace samie::trace {

class TraceSource {
 public:
  /// Generates `n` instructions of the given profile in RAM.
  [[nodiscard]] static TraceSource generate(const WorkloadProfile& profile,
                                            std::uint64_t seed,
                                            std::uint64_t n);
  /// Takes ownership of an existing trace.
  [[nodiscard]] static TraceSource from_trace(Trace t);
  /// Opens a SAMT file, autodetecting the version by its header. v1
  /// mmaps (zero-copy, shared page cache across processes and workers);
  /// v2 decodes its guarded blocks into an owned Trace. Throws
  /// TraceFormatError on malformed files (TraceCorruptError for damaged
  /// v2 files). For v1 the checksum pass touches every page once;
  /// `verify_checksum = false` skips it for replay hot paths that
  /// re-open an already-verified trace (v2 blocks are always verified —
  /// their guards are checked as a side effect of decoding). Either
  /// way, every record is then checked against the record domain
  /// (record_domain_violation in instruction.h): a record the model
  /// cannot simulate throws TraceCorruptError(kInteriorCorrupt) naming
  /// it — with its block and the block's offset for v2, kNoBlock and
  /// its own offset for v1.
  [[nodiscard]] static TraceSource open_samt(const std::string& path,
                                             bool verify_checksum = true);
  /// Reads a SAMT file into an owned in-RAM copy (TraceReader path),
  /// with open_samt's record-domain check.
  [[nodiscard]] static TraceSource read_samt(const std::string& path);
  /// Imports a plain-text trace (grammar: docs/TRACE_FORMAT.md).
  [[nodiscard]] static TraceSource import_text(const std::string& path);

  [[nodiscard]] TraceView view() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return view().size(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// True when backed by a file mapping rather than heap memory.
  [[nodiscard]] bool is_mapped() const noexcept {
    return std::holds_alternative<MappedTrace>(storage_);
  }
  /// For mapped sources: drop resident pages now (MADV_DONTNEED; see
  /// MappedTrace::advise_dontneed). No-op for in-RAM traces. Call when
  /// the last consumer of this source is done but the object itself
  /// lives on (e.g. in a sweep's trace cache).
  void advise_dontneed() const noexcept {
    if (const auto* m = std::get_if<MappedTrace>(&storage_)) {
      m->advise_dontneed();
    }
  }

 private:
  TraceSource(std::variant<Trace, MappedTrace> storage, std::string name,
              std::uint64_t seed)
      : storage_(std::move(storage)), name_(std::move(name)), seed_(seed) {}

  std::variant<Trace, MappedTrace> storage_;
  std::string name_;
  std::uint64_t seed_ = 0;
};

}  // namespace samie::trace
