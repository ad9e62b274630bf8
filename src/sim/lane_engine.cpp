#include "src/sim/lane_engine.h"

#include <algorithm>
#include <stdexcept>

#include "src/branch/predictor.h"
#include "src/core/core.h"
#include "src/energy/ledger.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/sim/stats_collector.h"
#include "src/sim/trace_shard.h"

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

/// Warm-up-excluding lane for one shard of a sharded trace replay: two
/// complete runs of the same machine over the same view, stepped
/// sequentially — first the warm-up prefix alone (the "base" run), then
/// prefix plus measured range (the "whole" run) — and finish() reports
/// whole minus base (trace_shard.h). Two complete runs, rather than one
/// run with a stats reset, keep the subtraction exact: under full
/// warm-up, shard i's base run is bit-identical to shard i-1's whole
/// run, so the per-shard differences telescope to the unsharded totals.
class ShardLane final : public Lane {
 public:
  ShardLane(const SimConfig& cfg, trace::TraceView trace) : cfg_(cfg) {
    const std::uint64_t total =
        std::min<std::uint64_t>(cfg_.instructions, trace.size());
    const std::uint64_t warm =
        std::min<std::uint64_t>(effective_trace_warmup(cfg_), total);
    // Sub-lanes replay plain prefixes: shard fields zeroed so make_lane
    // builds ordinary LaneImpls (no recursion) and the runs are
    // bit-identical to standalone runs over the same records.
    SimConfig sub = cfg_;
    sub.trace_measure_begin = 0;
    sub.trace_measure_end = 0;
    sub.trace_warmup = 0;
    sub.instructions = warm;
    base_ = make_lane(sub, trace.subview(0, warm));
    sub.instructions = total;
    whole_cfg_ = sub;
    whole_view_ = trace.subview(0, total);
  }

  bool step(std::uint64_t max_cycles) override {
    if (base_) {
      if (base_->step(max_cycles)) return true;
      base_result_ = base_->finish();
      base_.reset();
      whole_ = make_lane(whole_cfg_, whole_view_);
      return true;  // boundary turn: the whole run starts next step
    }
    return whole_->step(max_cycles);
  }

  [[nodiscard]] SimResult finish() override {
    return subtract_measured(whole_->finish(), base_result_, cfg_);
  }

 private:
  SimConfig cfg_;
  std::unique_ptr<Lane> base_;
  std::unique_ptr<Lane> whole_;
  SimResult base_result_;
  SimConfig whole_cfg_;
  trace::TraceView whole_view_;
};

}  // namespace

std::unique_ptr<Lane> make_lane(const SimConfig& cfg,
                                trace::TraceView trace) {
  if (effective_trace_warmup(cfg) > 0) {
    return std::make_unique<ShardLane>(cfg, trace);
  }
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
