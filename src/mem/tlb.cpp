#include "src/mem/tlb.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace samie::mem {

namespace {

/// Renormalization threshold for the monotonic recency counter. One tick
/// is consumed per access, so reaching this takes ~9.2e18 accesses —
/// unreachable at suite scale (a full 26-program sweep consumes ~1e7) —
/// but the miss path still guards the wraparound instead of relying on
/// 64-bit luck: ticks are compressed order-preservingly before they can
/// wrap to 0 and corrupt the LRU order.
constexpr std::uint64_t kTickRenormalize =
    std::numeric_limits<std::uint64_t>::max() - (1ULL << 32);

/// `cfg`, or std::invalid_argument naming the first field that breaks
/// the model: access() shifts by log2(page_bytes), and a miss evicts
/// from a resident set that must hold at least one page.
const TlbConfig& checked(const TlbConfig& cfg, std::string_view name) {
  const std::string who = "TlbConfig " + std::string(name) + ": ";
  if (!is_pow2(cfg.page_bytes)) {
    throw std::invalid_argument(who +
                                "page_bytes must be a power of two (got " +
                                std::to_string(cfg.page_bytes) + ")");
  }
  if (cfg.entries == 0) {
    throw std::invalid_argument(who + "entries must be >= 1");
  }
  return cfg;
}

}  // namespace

Tlb::Tlb(const TlbConfig& cfg, std::string_view name)
    : cfg_(checked(cfg, name)), page_shift_(log2_floor(cfg_.page_bytes)) {
  entries_.reserve(cfg_.entries);
  index_.reserve(cfg_.entries);
}

void Tlb::reset() {
  entries_.clear();
  index_.clear();
  front_.fill(FrontEntry{});
  tick_ = 0;
  hits_ = 0;
  misses_ = 0;
}

Tlb::Entry* Tlb::find(Addr vpn) {
  // Front-miss path only: one hash probe into the slot index.
  const auto it = index_.find(vpn);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

void Tlb::install_front(Addr vpn, std::uint64_t tick) {
  FrontEntry& fe = front_[vpn & (kFrontSize - 1)];
  if (fe.valid && fe.vpn != vpn) {
    // The displaced page stays resident; its front-accumulated recency
    // must reach the resident set or the LRU scan would see a stale tick.
    if (Entry* e = find(fe.vpn); e != nullptr) e->tick = fe.tick;
  }
  fe.valid = true;
  fe.vpn = vpn;
  fe.tick = tick;
}

void Tlb::evict_lru() {
  // True-LRU eviction; the scan is miss-path only and walks the dense
  // array. Pages held by the front array carry their freshest tick
  // there (see effective_tick).
  assert(!entries_.empty());
  std::size_t victim = 0;
  std::uint64_t victim_tick =
      effective_tick(entries_[0].vpn, entries_[0].tick);
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const std::uint64_t t = effective_tick(entries_[i].vpn, entries_[i].tick);
    if (t < victim_tick) {
      victim = i;
      victim_tick = t;
    }
  }
  FrontEntry& fe = front_[entries_[victim].vpn & (kFrontSize - 1)];
  if (fe.valid && fe.vpn == entries_[victim].vpn) fe.valid = false;
  index_.erase(entries_[victim].vpn);
  entries_[victim] = entries_.back();
  entries_.pop_back();
  if (victim < entries_.size()) {
    index_[entries_[victim].vpn] = static_cast<std::uint32_t>(victim);
  }
}

void Tlb::renormalize_ticks() {
  // Compress all live ticks into [1, n] preserving order. Cold by many
  // orders of magnitude (see kTickRenormalize); correctness only.
  std::sort(entries_.begin(), entries_.end(),
            [this](const Entry& a, const Entry& b) {
              return effective_tick(a.vpn, a.tick) <
                     effective_tick(b.vpn, b.tick);
            });
  tick_ = 0;
  index_.clear();
  for (Entry& e : entries_) {
    e.tick = ++tick_;
    index_[e.vpn] = static_cast<std::uint32_t>(&e - entries_.data());
    FrontEntry& fe = front_[e.vpn & (kFrontSize - 1)];
    if (fe.valid && fe.vpn == e.vpn) fe.tick = e.tick;
  }
}

bool Tlb::access(Addr vaddr) {
  const Addr vpn = vaddr >> page_shift_;
  FrontEntry& fe = front_[vpn & (kFrontSize - 1)];
  if (fe.valid && fe.vpn == vpn) {
    // Front hit: no resident-set search; recency lands in the front cell.
    fe.tick = ++tick_;
    ++hits_;
    return true;
  }
  if (Entry* e = find(vpn); e != nullptr) {
    e->tick = ++tick_;
    ++hits_;
    install_front(vpn, e->tick);
    return true;
  }
  ++misses_;
  if (tick_ >= kTickRenormalize) renormalize_ticks();
  if (entries_.size() >= cfg_.entries) evict_lru();
  index_[vpn] = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(Entry{vpn, ++tick_});
  install_front(vpn, tick_);
  return false;
}

}  // namespace samie::mem
