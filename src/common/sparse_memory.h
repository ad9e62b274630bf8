// SparseMemory: a byte-addressed memory image stored one 64-bit word per
// touched 8-byte-aligned address.
//
// The simulator's committed architectural memory, the workload
// generator's oracle and the text importer's oracle all hold the same
// thing: the little-endian bytes that program-order stores left behind,
// with untouched bytes reading as zero. Every access in a trace is a
// naturally aligned 4- or 8-byte load or store (the record domain,
// src/trace/instruction.h), so no access ever spans two words and one
// open-addressing table keyed by `addr >> 3` serves them all. Memory
// then grows with the words a run touches, not with the 4 KB pages they
// fall in: a strided stream that touches one word per page costs at
// most 32 bytes per word here (16-byte slots, load factor <= 1/2)
// instead of a page.
//
// Reads never insert: a read of an untouched word returns 0 and leaves
// the table as it was.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace samie {

class SparseMemory {
 public:
  /// Stores the low `bytes` bytes of `value` at `addr` (4 or 8 bytes,
  /// naturally aligned).
  void write(Addr addr, std::uint32_t bytes, std::uint64_t value) {
    assert(aligned(addr, bytes));
    std::uint64_t& word = insert(addr >> 3);
    if (bytes == 8) {
      word = value;
      return;
    }
    const unsigned shift = half_shift(addr);
    word = (word & ~(kLow32 << shift)) | ((value & kLow32) << shift);
  }

  /// The `bytes` bytes at `addr` (4 or 8, naturally aligned), zero-
  /// extended; never-written bytes read as 0.
  [[nodiscard]] std::uint64_t read(Addr addr, std::uint32_t bytes) const {
    assert(aligned(addr, bytes));
    const std::uint64_t word = lookup(addr >> 3);
    return bytes == 8 ? word : (word >> half_shift(addr)) & kLow32;
  }

  /// Table slots allocated (a power of two, at least twice the words held).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint64_t word = 0;
  };

  /// No word key (`addr >> 3` < 2^61) can equal it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kLow32 = 0xFFFFFFFFULL;
  static constexpr unsigned kInitialLog2 = 10;

  [[nodiscard]] static constexpr bool aligned(Addr addr,
                                              std::uint32_t bytes) noexcept {
    return (bytes == 4 || bytes == 8) && addr % bytes == 0;
  }
  /// Bit offset of a 4-byte access within its word.
  [[nodiscard]] static constexpr unsigned half_shift(Addr addr) noexcept {
    return static_cast<unsigned>(addr & 4) * 8;
  }

  /// Fibonacci hashing: the top log2(capacity) bits of key * 2^64/phi,
  /// which spreads the arithmetic progressions strided streams produce.
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  [[nodiscard]] std::uint64_t lookup(std::uint64_t key) const noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].word;
      if (slots_[i].key == kEmpty) return 0;
    }
  }

  /// The word for `key`, inserted as 0 if absent. Keeps the load factor
  /// at or below 1/2, so linear probes stay short.
  [[nodiscard]] std::uint64_t& insert(std::uint64_t key) {
    for (;;) {
      std::size_t i = home(key);
      while (slots_[i].key != key && slots_[i].key != kEmpty) {
        i = (i + 1) & mask_;
      }
      if (slots_[i].key == key) return slots_[i].word;
      if (2 * (used_ + 1) <= slots_.size()) {
        ++used_;
        slots_[i].key = key;
        return slots_[i].word;
      }
      grow();
    }
  }

  void grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
    mask_ = slots_.size() - 1;
    --shift_;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << kInitialLog2);
  std::size_t mask_ = (std::size_t{1} << kInitialLog2) - 1;
  unsigned shift_ = 64 - kInitialLog2;
  std::size_t used_ = 0;  ///< words held
};

}  // namespace samie
