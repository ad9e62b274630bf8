#include "src/sim/lane_engine.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "src/branch/predictor.h"
#include "src/core/core.h"
#include "src/energy/ledger.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/sim/stats_collector.h"

namespace samie::sim {

namespace {

// Each LSQ kind bundles its queue with the ledger it reports to (if
// any) and the per-kind energy fold into SimResult. The bundle is what
// varies across run_simulation's switch; everything else about a lane
// is uniform.

struct ConvBundle {
  using Queue = lsq::ConventionalLsq;
  energy::ConvLsqLedger ledger;
  Queue queue;
  ConvBundle(const SimConfig& cfg, const energy::LsqEnergyConstants& k)
      : ledger(k), queue(cfg.conventional, &ledger) {}
  Queue& get() { return queue; }
  void fold(SimResult& r) const { r.lsq_energy_nj = ledger.energy_pj() / 1e3; }
  void save_counts(LedgerCounts& c) const {
    ledger.save(c.v + LedgerCounts::kConv);
  }
};

/// Figure 1's normalizer: a conventional queue with an entry per ROB
/// slot never stalls dispatch or placement.
struct UnboundedBundle {
  using Queue = lsq::ConventionalLsq;
  Queue queue;
  UnboundedBundle(const SimConfig& cfg, const energy::LsqEnergyConstants&)
      : queue(lsq::ConventionalLsqConfig{.entries = cfg.core.rob_size},
              nullptr) {}
  Queue& get() { return queue; }
  void fold(SimResult&) const {}
  void save_counts(LedgerCounts&) const {}
};

struct ArbBundle {
  using Queue = lsq::ArbLsq;
  Queue queue;
  ArbBundle(const SimConfig& cfg, const energy::LsqEnergyConstants&)
      : queue(cfg.arb) {}
  Queue& get() { return queue; }
  void fold(SimResult&) const {}
  void save_counts(LedgerCounts&) const {}
};

/// `cfg.samie`, or std::invalid_argument when its copy of the L1D
/// geometry differs from the L1D's: SAMIE caches an L1D (set, way) per
/// entry of one line and resets presentBits by L1D set (§3.4), so a
/// different line size or set count can break the presentBit protocol.
const lsq::SamieConfig& samie_config_matching_l1d(const SimConfig& cfg) {
  const mem::CacheConfig& l1d = cfg.memory.l1d;
  if (cfg.samie.line_bytes != l1d.line_bytes) {
    throw std::invalid_argument(
        "SimConfig: samie.line_bytes (" + std::to_string(cfg.samie.line_bytes) +
        ") must equal the L1D's line_bytes (" +
        std::to_string(l1d.line_bytes) + ")");
  }
  if (cfg.samie.l1d_sets != l1d.sets()) {
    throw std::invalid_argument(
        "SimConfig: samie.l1d_sets (" + std::to_string(cfg.samie.l1d_sets) +
        ") must equal the L1D's set count (" + std::to_string(l1d.sets()) +
        ")");
  }
  return cfg.samie;
}

struct SamieBundle {
  using Queue = lsq::SamieLsq;
  energy::SamieLsqLedger ledger;
  Queue queue;
  SamieBundle(const SimConfig& cfg, const energy::LsqEnergyConstants& k)
      : ledger(k), queue(samie_config_matching_l1d(cfg), &ledger) {}
  Queue& get() { return queue; }
  void fold(SimResult& r) const {
    r.lsq_energy_nj = ledger.energy_pj() / 1e3;
    r.lsq_distrib_nj = ledger.distrib_pj() / 1e3;
    r.lsq_shared_nj = ledger.shared_pj() / 1e3;
    r.lsq_addrbuf_nj = ledger.addrbuf_pj() / 1e3;
    r.lsq_bus_nj = ledger.bus_pj() / 1e3;
  }
  void save_counts(LedgerCounts& c) const {
    ledger.save(c.v + LedgerCounts::kSamie);
  }
};

/// The concrete machine: Core<Queue, StatsCollector> stays statically
/// dispatched — the virtual boundary is only the per-turn step() call.
template <typename Bundle>
class LaneImpl final : public Lane {
 public:
  LaneImpl(const SimConfig& cfg, trace::TraceWindow trace)
      : cfg_(cfg),
        constants_(cfg_.paper_energy_constants
                       ? energy::paper_constants()
                       : energy::derived_constants(energy::tech_100nm())),
        dcache_ledger_(constants_),
        dtlb_ledger_(constants_),
        bundle_(cfg_, constants_),
        memory_(cfg_.memory),
        collector_(cfg_, constants_),
        core_(cfg_.core, std::move(trace), bundle_.get(), memory_,
              predictor_, btb_, &dcache_ledger_, &dtlb_ledger_, &collector_) {
    core_.begin(cfg_.instructions);
  }

  bool step(std::uint64_t max_cycles) override {
    return core_.step(max_cycles);
  }

  [[nodiscard]] SimResult finish() override {
    SimResult r;
    r.core = core_.finish();
    collector_.fold_into(r);
    r.dcache_energy_nj = dcache_ledger_.energy_pj() / 1e3;
    r.dtlb_energy_nj = dtlb_ledger_.energy_pj() / 1e3;
    r.l1d_hits = memory_.l1d().hits();
    r.l1d_misses = memory_.l1d().misses();
    r.dtlb_hits = memory_.dtlb().hits();
    r.dtlb_misses = memory_.dtlb().misses();
    r.branch_mispredicts = predictor_.mispredicts();
    r.branch_lookups = predictor_.lookups();
    bundle_.fold(r);
    dcache_ledger_.save(r.ledgers.v + LedgerCounts::kDcache);
    dtlb_ledger_.save(r.ledgers.v + LedgerCounts::kDtlb);
    bundle_.save_counts(r.ledgers);
    return r;
  }

 private:
  // Declaration order is construction order; collector_ and core_
  // hold references into the members above them.
  SimConfig cfg_;
  energy::LsqEnergyConstants constants_;
  energy::DcacheLedger dcache_ledger_;
  energy::DtlbLedger dtlb_ledger_;
  Bundle bundle_;
  mem::MemoryHierarchy memory_;
  branch::HybridPredictor predictor_;
  branch::Btb btb_;
  StatsCollector collector_;
  core::Core<typename Bundle::Queue, StatsCollector> core_;
};

std::unique_ptr<Lane> lane_over(const SimConfig& cfg,
                                trace::TraceWindow trace) {
  switch (cfg.lsq) {
    case LsqChoice::kConventional:
      return std::make_unique<LaneImpl<ConvBundle>>(cfg, std::move(trace));
    case LsqChoice::kUnbounded:
      return std::make_unique<LaneImpl<UnboundedBundle>>(cfg, std::move(trace));
    case LsqChoice::kArb:
      return std::make_unique<LaneImpl<ArbBundle>>(cfg, std::move(trace));
    case LsqChoice::kSamie:
      return std::make_unique<LaneImpl<SamieBundle>>(cfg, std::move(trace));
  }
  throw std::logic_error("make_lane: unknown LsqChoice");
}

}  // namespace

std::unique_ptr<Lane> make_lane(const SimConfig& cfg,
                                trace::TraceView trace) {
  return lane_over(cfg, trace);
}

std::unique_ptr<Lane> make_lane(const SimConfig& cfg,
                                const trace::TraceSource& source) {
  return lane_over(cfg, trace::TraceWindow(
                            source, std::size_t{cfg.core.rob_size} +
                                        cfg.core.fetch_queue));
}

}  // namespace samie::sim
