#include "src/mem/cache.h"

#include <stdexcept>

namespace samie::mem {

namespace {

/// `cfg`, or std::invalid_argument naming the first field that breaks
/// the index math: set_index masks and tag_of shifts assume power-of-two
/// line and set counts.
const CacheConfig& checked(const CacheConfig& cfg) {
  const std::string who = "CacheConfig " + cfg.name + ": ";
  if (!is_pow2(cfg.line_bytes)) {
    throw std::invalid_argument(who + "line_bytes must be a power of two (got " +
                                std::to_string(cfg.line_bytes) + ")");
  }
  if (cfg.associativity == 0) {
    throw std::invalid_argument(who + "associativity must be >= 1");
  }
  if (!is_pow2(cfg.sets())) {
    throw std::invalid_argument(
        who + "set count size_bytes / (associativity * line_bytes) must be "
              "a power of two (got " + std::to_string(cfg.sets()) + ")");
  }
  return cfg;
}

}  // namespace

Cache::Cache(const CacheConfig& cfg)
    : cfg_(checked(cfg)),
      num_sets_(static_cast<std::uint32_t>(cfg_.sets())),
      line_shift_(log2_floor(cfg_.line_bytes)),
      set_shift_(log2_floor(num_sets_)) {
  lines_.resize(static_cast<std::size_t>(num_sets_) * cfg_.associativity);
}

void Cache::reset() {
  for (auto& l : lines_) l = Line{};
  tick_ = 0;
  hits_ = 0;
  misses_ = 0;
}

std::uint32_t Cache::set_index(Addr addr) const {
  return static_cast<std::uint32_t>((addr >> line_shift_) & (num_sets_ - 1));
}

Addr Cache::tag_of(Addr addr) const {
  return addr >> line_shift_ >> set_shift_;
}

CacheAccess Cache::access(Addr addr) {
  CacheAccess r;
  r.set = set_index(addr);
  const Addr tag = tag_of(addr);
  Line* base = &lines_[static_cast<std::size_t>(r.set) * cfg_.associativity];

  std::uint32_t victim = 0;
  std::uint64_t oldest = ~0ULL;
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = ++tick_;
      r.hit = true;
      r.way = w;
      ++hits_;
      return r;
    }
    if (!line.valid) {
      victim = w;
      oldest = 0;  // empty way always preferred
    } else if (oldest != 0 && line.lru < oldest) {
      victim = w;
      oldest = line.lru;
    }
  }

  ++misses_;
  Line& v = base[victim];
  if (v.valid) {
    r.evicted = true;
    r.evicted_set = r.set;
    r.evicted_line_addr = ((v.tag << set_shift_) | r.set) << line_shift_;
    r.evicted_present_bit = v.present_bit;
  }
  v.valid = true;
  v.tag = tag;
  v.lru = ++tick_;
  v.present_bit = false;
  r.way = victim;
  return r;
}

bool Cache::access_known(std::uint32_t set, std::uint32_t way, Addr addr) {
  Line& line = lines_[static_cast<std::size_t>(set) * cfg_.associativity + way];
  if (!line.valid || line.tag != tag_of(addr) || set != set_index(addr)) {
    return false;
  }
  line.lru = ++tick_;
  ++hits_;
  return true;
}

bool Cache::contains(Addr addr) const {
  const std::uint32_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  const Line* base = &lines_[static_cast<std::size_t>(set) * cfg_.associativity];
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void Cache::set_present_bit(std::uint32_t set, std::uint32_t way, bool v) {
  lines_[static_cast<std::size_t>(set) * cfg_.associativity + way].present_bit = v;
}

bool Cache::present_bit(std::uint32_t set, std::uint32_t way) const {
  return lines_[static_cast<std::size_t>(set) * cfg_.associativity + way].present_bit;
}

}  // namespace samie::mem
