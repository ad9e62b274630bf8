#include "src/sim/lane_engine.h"

#include <stdexcept>

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

struct UnboundedBundle {
  using Queue = lsq::LoadStoreQueue;
  std::unique_ptr<Queue> queue;
  UnboundedBundle(const SimConfig& cfg, const energy::LsqEnergyConstants&)
      : queue(lsq::make_unbounded_lsq(cfg.core.rob_size)) {}
  Queue& get() { return *queue; }
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

struct SamieBundle {
  using Queue = lsq::SamieLsq;
  energy::SamieLsqLedger ledger;
  Queue queue;
  SamieBundle(const SimConfig& cfg, const energy::LsqEnergyConstants& k)
      : ledger(k), queue(cfg.samie, &ledger) {}
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
  LaneImpl(const SimConfig& cfg, trace::TraceView trace)
      : cfg_(cfg),
        constants_(cfg_.paper_energy_constants
                       ? energy::paper_constants()
                       : energy::derived_constants(energy::tech_100nm())),
        dcache_ledger_(constants_),
        dtlb_ledger_(constants_),
        bundle_(cfg_, constants_),
        memory_(cfg_.memory),
        collector_(cfg_, constants_),
        core_(cfg_.core, trace, bundle_.get(), memory_, predictor_, btb_,
              &dcache_ledger_, &dtlb_ledger_, &collector_) {
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

}  // namespace

std::unique_ptr<Lane> make_lane(const SimConfig& cfg,
                                trace::TraceView trace) {
  switch (cfg.lsq) {
    case LsqChoice::kConventional:
      return std::make_unique<LaneImpl<ConvBundle>>(cfg, trace);
    case LsqChoice::kUnbounded:
      return std::make_unique<LaneImpl<UnboundedBundle>>(cfg, trace);
    case LsqChoice::kArb:
      return std::make_unique<LaneImpl<ArbBundle>>(cfg, trace);
    case LsqChoice::kSamie:
      return std::make_unique<LaneImpl<SamieBundle>>(cfg, trace);
  }
  throw std::logic_error("make_lane: unknown LsqChoice");
}

}  // namespace samie::sim
