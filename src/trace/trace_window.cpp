#include "src/trace/trace_window.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"

namespace samie::trace {

TraceWindow::TraceWindow(TraceView flat) noexcept
    : base_(flat.data()), size_(flat.size()), decoded_end_(flat.size()) {}

TraceWindow::TraceWindow(const TraceSource& source, std::size_t behind)
    : size_(source.size()),
      behind_(behind),
      next_block_(source.blocks().data()) {
  if (size_ == 0) return;
  // A block is decoded when fetch reaches its first record, with at most
  // `behind` older records still read, so it overwrites nothing read.
  const std::uint64_t span = std::min<std::uint64_t>(
      size_, std::uint64_t{source.max_block_records()} + behind);
  ring_.resize(std::bit_ceil(span));
  base_ = ring_.data();
  mask_ = ring_.size() - 1;
}

void TraceWindow::decode_next([[maybe_unused]] std::uint64_t oldest) noexcept {
  const SamtBlockHeader h =
      decode_resident_block(next_block_, ring_.data(), mask_);
  assert(h.first_record == decoded_end_);
  next_block_ += sizeof h + h.payload_bytes;
  decoded_end_ += h.record_count;
  // The block took the slots of records decoded_end_ - ring_.size() and
  // older: none of them may still be read.
  assert(decoded_end_ <= oldest + ring_.size());
}

}  // namespace samie::trace
