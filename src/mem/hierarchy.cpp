#include "src/mem/hierarchy.h"

namespace samie::mem {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& cfg)
    : cfg_(cfg),
      l1i_(cfg.l1i),
      l1d_(cfg.l1d),
      l2_(cfg.l2),
      itlb_(cfg.itlb, "ITLB"),
      dtlb_(cfg.dtlb, "DTLB") {}

void MemoryHierarchy::reset() {
  l1i_.reset();
  l1d_.reset();
  l2_.reset();
  itlb_.reset();
  dtlb_.reset();
}

Cycle MemoryHierarchy::fill_from_l2(Addr addr) {
  const CacheAccess l2r = l2_.access(addr);
  return l2_.hit_latency() + (l2r.hit ? 0 : cfg_.memory_latency);
}

DataAccess MemoryHierarchy::data_access_translated(Addr addr) {
  DataAccess r;
  const CacheAccess a = l1d_.access(addr);
  r.l1_hit = a.hit;
  r.set = a.set;
  r.way = a.way;
  r.latency = l1d_.hit_latency();
  if (!a.hit) r.latency += fill_from_l2(addr);
  if (a.evicted) {
    r.evicted = true;
    r.evicted_set = a.evicted_set;
    r.evicted_present_bit = a.evicted_present_bit;
  }
  return r;
}

DataAccess MemoryHierarchy::data_access(Addr addr) {
  const bool tlb_hit = dtlb_.access(addr);
  DataAccess r = data_access_translated(addr);
  if (!tlb_hit) r.latency += dtlb_.miss_penalty();
  return r;
}

MemoryHierarchy::KnownAccess MemoryHierarchy::data_access_known(
    std::uint32_t set, std::uint32_t way, Addr addr) {
  KnownAccess r;
  r.ok = l1d_.access_known(set, way, addr);
  r.latency = l1d_.hit_latency();
  return r;
}

Cycle MemoryHierarchy::inst_access(Addr pc) {
  const bool tlb_hit = itlb_.access(pc);
  const CacheAccess a = l1i_.access(pc);
  Cycle lat = l1i_.hit_latency();
  if (!a.hit) lat += fill_from_l2(pc);
  if (!tlb_hit) lat += itlb_.miss_penalty();
  // Next-line instruction prefetch: sequential fetch is the common case
  // and front ends of this era stream the next line behind the demand
  // access, so its fill latency is hidden.
  const Addr next_line = (pc | (l1i_.line_bytes() - 1)) + 1;
  if (!l1i_.contains(next_line)) {
    const CacheAccess p = l1i_.access(next_line);
    if (!p.hit) l2_.access(next_line);
  }
  return lat;
}

}  // namespace samie::mem
