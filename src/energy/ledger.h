// Runtime energy and active-area accounting.
//
// The simulator emits one ledger event per microarchitectural activity.
// Hooks are pure 64-bit counter increments — no floating point runs on
// the hot path. Variable-cost associative searches keep a sufficient
// statistic (search count, total operands compared), which makes the
// energy fold exact:
//
//   sum over N searches of (base + per * n_i)  ==  N*base + (sum n_i)*per
//
// Energy is computed once, at fold time, as `count * pj` from the
// constants in lsq_model.h; the fold is O(1) in the number of events.
// docs/ENERGY_LEDGER.md documents the fold semantics and why the golden
// statistics were re-frozen when this scheme replaced per-event FP
// accumulation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/energy/lsq_model.h"

namespace samie::energy {

/// Events of the conventional fully-associative LSQ (Table 4 rows).
class ConvLsqLedger {
 public:
  explicit ConvLsqLedger(const LsqEnergyConstants& k) : k_(&k) {}

  /// One associative search comparing against `compared` addresses.
  void on_addr_search(std::uint64_t compared) {
    ++searches_;
    addrs_compared_ += compared;
  }
  void on_addr_write() { ++addr_rw_; }
  void on_addr_read() { ++addr_rw_; }
  void on_datum_write() { ++datum_rw_; }
  void on_datum_read() { ++datum_rw_; }

  /// Fold the event counts into picojoules. Called once per run.
  [[nodiscard]] double energy_pj() const {
    return static_cast<double>(searches_) * k_->conv.addr_cmp_base_pj +
           static_cast<double>(addrs_compared_) * k_->conv.addr_cmp_per_addr_pj +
           static_cast<double>(addr_rw_) * k_->conv.addr_rw_pj +
           static_cast<double>(datum_rw_) * k_->conv.datum_rw_pj;
  }
  [[nodiscard]] std::uint64_t searches() const { return searches_; }
  [[nodiscard]] std::uint64_t addresses_compared() const { return addrs_compared_; }
  [[nodiscard]] std::uint64_t addr_accesses() const { return addr_rw_; }
  [[nodiscard]] std::uint64_t datum_accesses() const { return datum_rw_; }

  static constexpr std::size_t kSavedCounts = 4;
  /// Raw counts out to a flat array (SimResult::ledgers carries them).
  void save(std::uint64_t* out) const {
    out[0] = searches_;
    out[1] = addrs_compared_;
    out[2] = addr_rw_;
    out[3] = datum_rw_;
  }

 private:
  const LsqEnergyConstants* k_;
  std::uint64_t searches_ = 0;
  std::uint64_t addrs_compared_ = 0;
  std::uint64_t addr_rw_ = 0;
  std::uint64_t datum_rw_ = 0;
};

/// Events of the SAMIE-LSQ (Table 5 rows), with the Figure 8 breakdown.
class SamieLsqLedger {
 public:
  explicit SamieLsqLedger(const LsqEnergyConstants& k) : k_(&k) {}

  // --- bus -----------------------------------------------------------------
  void on_bus_send() { ++bus_sends_; }

  // --- DistribLSQ ------------------------------------------------------------
  void on_distrib_addr_search(std::uint64_t compared) {
    ++d_addr_searches_;
    d_addrs_compared_ += compared;
  }
  void on_distrib_age_search(std::uint64_t ids_compared) {
    ++d_age_searches_;
    d_age_ids_compared_ += ids_compared;
  }
  void on_distrib_addr_write() { ++d_addr_rw_; }
  void on_distrib_age_write() { ++d_age_rw_; }
  void on_distrib_datum_rw() { ++d_datum_rw_; }
  void on_distrib_translation_rw() { ++d_translation_rw_; }
  void on_distrib_line_id_rw() { ++d_line_id_rw_; }

  // --- SharedLSQ -------------------------------------------------------------
  void on_shared_addr_search(std::uint64_t compared) {
    ++s_addr_searches_;
    s_addrs_compared_ += compared;
  }
  void on_shared_age_search(std::uint64_t ids_compared) {
    ++s_age_searches_;
    s_age_ids_compared_ += ids_compared;
  }
  void on_shared_addr_write() { ++s_addr_rw_; }
  void on_shared_age_write() { ++s_age_rw_; }
  void on_shared_datum_rw() { ++s_datum_rw_; }
  void on_shared_translation_rw() { ++s_translation_rw_; }
  void on_shared_line_id_rw() { ++s_line_id_rw_; }

  /// Fused Table-5 charge for one SAMIE placement search (try_place):
  /// one bus send, then in the target bank one address search over
  /// `bank_entries` valid entries plus one age search per valid entry
  /// (their in-use slot counts summing to `bank_ids`), and the mirrored
  /// SharedLSQ search over `shared_entries` entries / `shared_ids` ids.
  /// Identical counts to the equivalent sequence of per-event hooks —
  /// the sufficient statistics make the batching exact.
  void on_placement_search(std::uint64_t bank_entries, std::uint64_t bank_ids,
                           std::uint64_t shared_entries,
                           std::uint64_t shared_ids) {
    ++bus_sends_;
    ++d_addr_searches_;
    d_addrs_compared_ += bank_entries;
    d_age_searches_ += bank_entries;
    d_age_ids_compared_ += bank_ids;
    ++s_addr_searches_;
    s_addrs_compared_ += shared_entries;
    s_age_searches_ += shared_entries;
    s_age_ids_compared_ += shared_ids;
  }

  // --- AddrBuffer ------------------------------------------------------------
  /// One FIFO slot write or read (address word + age id).
  void on_addrbuf_write() { ++addrbuf_accesses_; }
  void on_addrbuf_read() { ++addrbuf_accesses_; }

  // --- fold ----------------------------------------------------------------
  [[nodiscard]] double energy_pj() const {
    return distrib_pj() + shared_pj() + addrbuf_pj() + bus_pj();
  }
  [[nodiscard]] double distrib_pj() const {
    return static_cast<double>(d_addr_searches_) * k_->samie.d_addr_cmp_base_pj +
           static_cast<double>(d_addrs_compared_) * k_->samie.d_addr_cmp_per_addr_pj +
           static_cast<double>(d_age_searches_) * k_->samie.d_age_cmp_base_pj +
           static_cast<double>(d_age_ids_compared_) * k_->samie.d_age_cmp_per_id_pj +
           static_cast<double>(d_addr_rw_) * k_->samie.d_addr_rw_pj +
           static_cast<double>(d_age_rw_) * k_->samie.d_age_rw_pj +
           static_cast<double>(d_datum_rw_) * k_->samie.d_datum_rw_pj +
           static_cast<double>(d_translation_rw_) * k_->samie.d_translation_rw_pj +
           static_cast<double>(d_line_id_rw_) * k_->samie.d_line_id_rw_pj;
  }
  [[nodiscard]] double shared_pj() const {
    return static_cast<double>(s_addr_searches_) * k_->samie.s_addr_cmp_base_pj +
           static_cast<double>(s_addrs_compared_) * k_->samie.s_addr_cmp_per_addr_pj +
           static_cast<double>(s_age_searches_) * k_->samie.s_age_cmp_base_pj +
           static_cast<double>(s_age_ids_compared_) * k_->samie.s_age_cmp_per_id_pj +
           static_cast<double>(s_addr_rw_) * k_->samie.s_addr_rw_pj +
           static_cast<double>(s_age_rw_) * k_->samie.s_age_rw_pj +
           static_cast<double>(s_datum_rw_) * k_->samie.s_datum_rw_pj +
           static_cast<double>(s_translation_rw_) * k_->samie.s_translation_rw_pj +
           static_cast<double>(s_line_id_rw_) * k_->samie.s_line_id_rw_pj;
  }
  [[nodiscard]] double addrbuf_pj() const {
    return static_cast<double>(addrbuf_accesses_) *
           (k_->samie.ab_datum_rw_pj + k_->samie.ab_age_rw_pj);
  }
  [[nodiscard]] double bus_pj() const {
    return static_cast<double>(bus_sends_) * k_->samie.bus_send_addr_pj;
  }
  [[nodiscard]] std::uint64_t bus_sends() const { return bus_sends_; }
  [[nodiscard]] std::uint64_t distrib_searches() const { return d_addr_searches_; }
  [[nodiscard]] std::uint64_t shared_searches() const { return s_addr_searches_; }
  [[nodiscard]] std::uint64_t addrbuf_accesses() const { return addrbuf_accesses_; }

  static constexpr std::size_t kSavedCounts = 20;
  void save(std::uint64_t* out) const {
    const std::uint64_t counts[kSavedCounts] = {
        bus_sends_,        d_addr_searches_, d_addrs_compared_,
        d_age_searches_,   d_age_ids_compared_, d_addr_rw_,
        d_age_rw_,         d_datum_rw_,      d_translation_rw_,
        d_line_id_rw_,     s_addr_searches_, s_addrs_compared_,
        s_age_searches_,   s_age_ids_compared_, s_addr_rw_,
        s_age_rw_,         s_datum_rw_,      s_translation_rw_,
        s_line_id_rw_,     addrbuf_accesses_};
    for (std::size_t i = 0; i < kSavedCounts; ++i) out[i] = counts[i];
  }

 private:
  const LsqEnergyConstants* k_;
  std::uint64_t bus_sends_ = 0;
  std::uint64_t d_addr_searches_ = 0;
  std::uint64_t d_addrs_compared_ = 0;
  std::uint64_t d_age_searches_ = 0;
  std::uint64_t d_age_ids_compared_ = 0;
  std::uint64_t d_addr_rw_ = 0;
  std::uint64_t d_age_rw_ = 0;
  std::uint64_t d_datum_rw_ = 0;
  std::uint64_t d_translation_rw_ = 0;
  std::uint64_t d_line_id_rw_ = 0;
  std::uint64_t s_addr_searches_ = 0;
  std::uint64_t s_addrs_compared_ = 0;
  std::uint64_t s_age_searches_ = 0;
  std::uint64_t s_age_ids_compared_ = 0;
  std::uint64_t s_addr_rw_ = 0;
  std::uint64_t s_age_rw_ = 0;
  std::uint64_t s_datum_rw_ = 0;
  std::uint64_t s_translation_rw_ = 0;
  std::uint64_t s_line_id_rw_ = 0;
  std::uint64_t addrbuf_accesses_ = 0;
};

/// L1 data cache access energy (full vs way-known accesses, Figure 9).
class DcacheLedger {
 public:
  explicit DcacheLedger(const LsqEnergyConstants& k) : k_(&k) {}

  void on_full_access() { ++full_; }
  void on_way_known_access() { ++known_; }

  [[nodiscard]] double energy_pj() const {
    return static_cast<double>(full_) * k_->mem.dcache_full_access_pj +
           static_cast<double>(known_) * k_->mem.dcache_way_known_pj;
  }
  [[nodiscard]] std::uint64_t full_accesses() const { return full_; }
  [[nodiscard]] std::uint64_t way_known_accesses() const { return known_; }

  static constexpr std::size_t kSavedCounts = 2;
  void save(std::uint64_t* out) const {
    out[0] = full_;
    out[1] = known_;
  }

 private:
  const LsqEnergyConstants* k_;
  std::uint64_t full_ = 0;
  std::uint64_t known_ = 0;
};

/// Data TLB access energy (Figure 10). Cached translations cost nothing in
/// the DTLB (the LSQ-side read is booked by SamieLsqLedger).
class DtlbLedger {
 public:
  explicit DtlbLedger(const LsqEnergyConstants& k) : k_(&k) {}

  void on_access() { ++accesses_; }
  void on_cached_translation() { ++cached_; }

  [[nodiscard]] double energy_pj() const {
    return static_cast<double>(accesses_) * k_->mem.dtlb_access_pj;
  }
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t cached_translations() const { return cached_; }

  static constexpr std::size_t kSavedCounts = 2;
  void save(std::uint64_t* out) const {
    out[0] = accesses_;
    out[1] = cached_;
  }

 private:
  const LsqEnergyConstants* k_;
  std::uint64_t accesses_ = 0;
  std::uint64_t cached_ = 0;
};

/// Integrates active area over cycles (Figures 11 and 12). Units are
/// um^2 * cycles; the figures' shapes are invariant to the unit choice.
/// Deliberately FP: the integrand varies per cycle with occupancy, so
/// there is no integer sufficient statistic; StatsCollector batches the
/// per-cycle adds run-length-wise instead.
class AreaIntegrator {
 public:
  void add_cycle(double distrib_um2, double shared_um2, double addrbuf_um2) {
    distrib_ += distrib_um2;
    shared_ += shared_um2;
    addrbuf_ += addrbuf_um2;
  }
  void add_cycle_conventional(double um2) { conventional_ += um2; }

  [[nodiscard]] double conventional() const { return conventional_; }
  [[nodiscard]] double distrib() const { return distrib_; }
  [[nodiscard]] double shared() const { return shared_; }
  [[nodiscard]] double addrbuf() const { return addrbuf_; }
  [[nodiscard]] double samie_total() const { return distrib_ + shared_ + addrbuf_; }

 private:
  double conventional_ = 0.0;
  double distrib_ = 0.0;
  double shared_ = 0.0;
  double addrbuf_ = 0.0;
};

}  // namespace samie::energy
