// Property tests for the integer-event energy ledger (src/energy/
// ledger.h): the O(1) count*pj fold must agree with legacy per-event FP
// accumulation on randomized event streams, the fused placement hook
// must be count-identical to the per-event hook sequence it batches.
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/energy/ledger.h"
#include "src/energy/lsq_model.h"

namespace samie::energy {
namespace {

/// One randomized SAMIE event. The legacy accumulator charges it with
/// one FP add per event (the pre-ledger scheme); the ledger counts it.
struct SamieEvent {
  enum Kind : int {
    kPlacement,      // fused try_place charge
    kDistribWrites,  // addr + age + datum + translation + line-id writes
    kSharedWrites,
    kAddrbuf,
    kKinds
  };
  Kind kind = kPlacement;
  std::uint64_t bank_entries = 0;
  std::uint64_t bank_ids = 0;
  std::uint64_t shared_entries = 0;
  std::uint64_t shared_ids = 0;
};

std::vector<SamieEvent> random_stream(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> kind(0, SamieEvent::kKinds - 1);
  std::uniform_int_distribution<std::uint64_t> entries(0, 8);
  std::uniform_int_distribution<std::uint64_t> ids(0, 64);
  std::vector<SamieEvent> out(n);
  for (SamieEvent& e : out) {
    e.kind = static_cast<SamieEvent::Kind>(kind(rng));
    e.bank_entries = entries(rng);
    e.bank_ids = ids(rng);
    e.shared_entries = entries(rng);
    e.shared_ids = ids(rng);
  }
  return out;
}

void charge_ledger(SamieLsqLedger& led, const SamieEvent& e) {
  switch (e.kind) {
    case SamieEvent::kPlacement:
      led.on_placement_search(e.bank_entries, e.bank_ids, e.shared_entries,
                              e.shared_ids);
      break;
    case SamieEvent::kDistribWrites:
      led.on_distrib_addr_write();
      led.on_distrib_age_write();
      led.on_distrib_datum_rw();
      led.on_distrib_translation_rw();
      led.on_distrib_line_id_rw();
      break;
    case SamieEvent::kSharedWrites:
      led.on_shared_addr_write();
      led.on_shared_age_write();
      led.on_shared_datum_rw();
      led.on_shared_translation_rw();
      led.on_shared_line_id_rw();
      break;
    case SamieEvent::kAddrbuf:
      led.on_addrbuf_write();
      led.on_addrbuf_read();
      break;
    case SamieEvent::kKinds:
      break;
  }
}

/// The pre-ledger accounting: one FP accumulation per event, in stream
/// order. The ledger's fold reassociates these sums (count * pj), so the
/// two agree to rounding, not bitwise — hence the relative tolerance.
double charge_legacy_fp(const LsqEnergyConstants& k,
                        const std::vector<SamieEvent>& stream) {
  double pj = 0.0;
  for (const SamieEvent& e : stream) {
    switch (e.kind) {
      case SamieEvent::kPlacement:
        pj += k.samie.bus_send_addr_pj;
        pj += k.samie.d_addr_cmp_base_pj +
              static_cast<double>(e.bank_entries) * k.samie.d_addr_cmp_per_addr_pj;
        for (std::uint64_t i = 0; i < e.bank_entries; ++i) {
          pj += k.samie.d_age_cmp_base_pj;
        }
        pj += static_cast<double>(e.bank_ids) * k.samie.d_age_cmp_per_id_pj;
        pj += k.samie.s_addr_cmp_base_pj +
              static_cast<double>(e.shared_entries) * k.samie.s_addr_cmp_per_addr_pj;
        for (std::uint64_t i = 0; i < e.shared_entries; ++i) {
          pj += k.samie.s_age_cmp_base_pj;
        }
        pj += static_cast<double>(e.shared_ids) * k.samie.s_age_cmp_per_id_pj;
        break;
      case SamieEvent::kDistribWrites:
        pj += k.samie.d_addr_rw_pj + k.samie.d_age_rw_pj +
              k.samie.d_datum_rw_pj + k.samie.d_translation_rw_pj +
              k.samie.d_line_id_rw_pj;
        break;
      case SamieEvent::kSharedWrites:
        pj += k.samie.s_addr_rw_pj + k.samie.s_age_rw_pj +
              k.samie.s_datum_rw_pj + k.samie.s_translation_rw_pj +
              k.samie.s_line_id_rw_pj;
        break;
      case SamieEvent::kAddrbuf:
        pj += 2.0 * (k.samie.ab_datum_rw_pj + k.samie.ab_age_rw_pj);
        break;
      case SamieEvent::kKinds:
        break;
    }
  }
  return pj;
}

constexpr double kRelTol = 1e-9;

TEST(EnergyFold, IntegerFoldMatchesLegacyFpAccumulationSamie) {
  const LsqEnergyConstants k = paper_constants();
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234567ULL}) {
    const std::vector<SamieEvent> stream = random_stream(seed, 20'000);
    SamieLsqLedger led(k);
    for (const SamieEvent& e : stream) charge_ledger(led, e);
    const double legacy = charge_legacy_fp(k, stream);
    EXPECT_NEAR(led.energy_pj(), legacy, kRelTol * legacy)
        << "seed " << seed;
  }
}

TEST(EnergyFold, IntegerFoldMatchesLegacyFpAccumulationConventional) {
  const LsqEnergyConstants k = paper_constants();
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::uint64_t> compared(0, 128);
  ConvLsqLedger led(k);
  double legacy = 0.0;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t n = compared(rng);
    led.on_addr_search(n);
    led.on_addr_write();
    led.on_datum_read();
    legacy += k.conv.addr_cmp_base_pj +
              static_cast<double>(n) * k.conv.addr_cmp_per_addr_pj;
    legacy += k.conv.addr_rw_pj;
    legacy += k.conv.datum_rw_pj;
  }
  EXPECT_NEAR(led.energy_pj(), legacy, kRelTol * legacy);
}

TEST(EnergyFold, FusedPlacementHookEqualsPerEventHooks) {
  // The fused charge and the equivalent per-event hook sequence must
  // produce identical counts, hence bitwise-identical folded energy.
  const LsqEnergyConstants k = paper_constants();
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::uint64_t> entries(0, 8);
  std::uniform_int_distribution<std::uint64_t> ids(0, 64);
  SamieLsqLedger fused(k);
  SamieLsqLedger unfused(k);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t be = entries(rng);
    const std::uint64_t se = entries(rng);
    // A bank with no valid entries has no used slots, so the id counts
    // are zero whenever the entry counts are (as in try_place).
    const std::uint64_t bi = be == 0 ? 0 : ids(rng);
    const std::uint64_t si = se == 0 ? 0 : ids(rng);
    fused.on_placement_search(be, bi, se, si);

    unfused.on_bus_send();
    unfused.on_distrib_addr_search(be);
    // One age search per valid entry; the entries' id counts sum to bi.
    for (std::uint64_t e = 0; e < be; ++e) {
      unfused.on_distrib_age_search(e + 1 == be ? bi : 0);
    }
    unfused.on_shared_addr_search(se);
    for (std::uint64_t e = 0; e < se; ++e) {
      unfused.on_shared_age_search(e + 1 == se ? si : 0);
    }
  }
  EXPECT_EQ(fused.energy_pj(), unfused.energy_pj());
  EXPECT_EQ(fused.distrib_pj(), unfused.distrib_pj());
  EXPECT_EQ(fused.shared_pj(), unfused.shared_pj());
  EXPECT_EQ(fused.bus_pj(), unfused.bus_pj());
}

}  // namespace
}  // namespace samie::energy
