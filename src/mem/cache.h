// Set-associative cache timing model with LRU replacement and the
// per-line `presentBit` the SAMIE-LSQ extension relies on (paper §3.4).
//
// This is a *timing/occupancy* model: no data bytes are stored (values
// live in the core's SparseMemory image); the cache tracks which lines are
// resident, where (set/way), and which of them have their physical
// location cached in some LSQ entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace samie::mem {

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 8 * 1024;
  std::uint32_t associativity = 4;
  std::uint32_t line_bytes = 32;
  /// Latency of a hit, in cycles.
  Cycle hit_latency = 2;
};

/// Result of one cache access.
struct CacheAccess {
  bool hit = false;
  std::uint32_t set = 0;
  std::uint32_t way = 0;
  /// A valid line was evicted to make room (its presentBit state is
  /// reported so the LSQ invalidation protocol can run).
  bool evicted = false;
  std::uint32_t evicted_set = 0;
  Addr evicted_line_addr = 0;
  bool evicted_present_bit = false;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Performs an access (allocate-on-miss, LRU update). `addr` is a byte
  /// address; writes and reads behave identically for occupancy purposes.
  CacheAccess access(Addr addr);

  /// Direct access to a known (set, way): used by way-known accesses.
  /// The caller guarantees residency via the presentBit protocol; this
  /// only refreshes LRU. Returns false if the protocol was violated (the
  /// line is absent) — tests assert this never happens.
  bool access_known(std::uint32_t set, std::uint32_t way, Addr addr);

  /// Probe without side effects.
  [[nodiscard]] bool contains(Addr addr) const;

  /// presentBit plumbing (paper §3.4).
  void set_present_bit(std::uint32_t set, std::uint32_t way, bool v);
  [[nodiscard]] bool present_bit(std::uint32_t set, std::uint32_t way) const;

  [[nodiscard]] std::uint32_t num_sets() const { return num_sets_; }
  [[nodiscard]] std::uint32_t associativity() const { return cfg_.associativity; }
  [[nodiscard]] Cycle hit_latency() const { return cfg_.hit_latency; }
  [[nodiscard]] std::uint32_t line_bytes() const { return cfg_.line_bytes; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  void reset();

 private:
  struct Line {
    Addr tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool present_bit = false;
  };

  [[nodiscard]] std::uint32_t set_index(Addr addr) const;
  [[nodiscard]] Addr tag_of(Addr addr) const;

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;  ///< log2(num_sets_), precomputed off the hot path
  std::vector<Line> lines_;  // sets * ways, row-major by set
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace samie::mem
