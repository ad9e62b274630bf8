// TraceWindow: the records a core reads, through one indexing path.
//
// A window over a flat TraceView has every record resident and nothing
// to refill. A window over a TraceSource owns a ring of decoded records
// and decodes the source's next v2 block into it when fetch first
// reaches that block, so a lane holds one block plus its in-flight
// records decoded, whatever the trace's length: 8192 records (256 KB)
// for 4096-record blocks under the paper's core. Both kinds index the
// same way, base[i & mask]; a flat window's mask is all ones. The ring
// never overwrites a record fewer than `behind` records before the
// fetch point, so a core's pointers to its in-flight records stay valid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/trace/instruction.h"
#include "src/trace/trace_view.h"

namespace samie::trace {

class TraceSource;

class TraceWindow {
 public:
  /// Every record of `flat` resident, nothing to refill; the backing
  /// storage must outlive the window. Implicit, like the conversion
  /// below, so `Core(cfg, trace, ...)` call sites passing a TraceView or
  /// a Trace keep compiling.
  TraceWindow(TraceView flat) noexcept;  // NOLINT(google-explicit-constructor)
  TraceWindow(const Trace& t) noexcept  // NOLINT(google-explicit-constructor)
      : TraceWindow(TraceView(t)) {}
  /// Decodes `source`, which must outlive the window, block by block
  /// into a ring of bit_ceil(source.max_block_records() + behind)
  /// records (fewer for a shorter trace), which keeps every record at
  /// most `behind` records before the fetch point.
  TraceWindow(const TraceSource& source, std::size_t behind);

  // Move-only: `base_` points into `ring_`.
  TraceWindow(TraceWindow&&) noexcept = default;
  TraceWindow& operator=(TraceWindow&&) noexcept = default;
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Record `i`: decoded (below decoded_end()) and not yet overwritten.
  [[nodiscard]] const MicroOp& operator[](std::uint64_t i) const noexcept {
    return base_[i & mask_];
  }
  /// Records [0, decoded_end()) have been decoded; all of them for a
  /// flat window.
  [[nodiscard]] std::uint64_t decoded_end() const noexcept {
    return decoded_end_;
  }
  /// How many records before the fetch point the window keeps: the
  /// source constructor's `behind`, unbounded for a flat window.
  [[nodiscard]] std::uint64_t behind() const noexcept { return behind_; }
  /// Decodes the next block. Called when fetch reaches decoded_end(),
  /// below size(); records from `oldest` on (the oldest one still read)
  /// must survive it.
  void decode_next(std::uint64_t oldest) noexcept;

 private:
  const MicroOp* base_ = nullptr;
  std::uint64_t mask_ = ~std::uint64_t{0};
  std::size_t size_ = 0;
  std::uint64_t decoded_end_ = 0;
  std::uint64_t behind_ = ~std::uint64_t{0};
  const unsigned char* next_block_ = nullptr;
  std::vector<MicroOp> ring_;
};

}  // namespace samie::trace
