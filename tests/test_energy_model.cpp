// Tests for src/energy: the CACTI-style surrogate against the paper's
// published numbers (Tables 1, 4, 5, 6 and the Section 3.6 delays), cell
// geometry, the runtime ledgers, and area helpers.
#include <gtest/gtest.h>

#include <tuple>

#include "src/energy/array_model.h"
#include "src/energy/cache_model.h"
#include "src/energy/ledger.h"
#include "src/energy/lsq_model.h"
#include "src/energy/technology.h"

namespace samie::energy {
namespace {

// ----------------------------------------------------------- Table 6 ------
// Cell areas must reproduce the published values closely: the geometry
// model was calibrated on exactly these points.
TEST(CellAreas, ReproducePaperTable6) {
  const Technology tech = tech_100nm();
  const ArrayModel cam8(tech, {128, 32, 8, CellType::kCam});
  const ArrayModel ram8(tech, {128, 64, 8, CellType::kRam});
  const ArrayModel cam2(tech, {2, 27, 2, CellType::kCam});
  const ArrayModel ram2(tech, {16, 64, 2, CellType::kRam});
  EXPECT_NEAR(cam8.cell_area_um2(), 28.0, 28.0 * 0.02);
  EXPECT_NEAR(ram8.cell_area_um2(), 20.0, 20.0 * 0.02);
  EXPECT_NEAR(cam2.cell_area_um2(), 10.0, 10.0 * 0.02);
  EXPECT_NEAR(ram2.cell_area_um2(), 6.0, 6.0 * 0.02);
}

TEST(CellAreas, GrowWithPorts) {
  const Technology tech = tech_100nm();
  double prev = 0.0;
  for (std::uint32_t p = 1; p <= 8; ++p) {
    const ArrayModel m(tech, {16, 32, p, CellType::kRam});
    EXPECT_GT(m.cell_area_um2(), prev);
    prev = m.cell_area_um2();
  }
}

TEST(CellAreas, CamLargerThanRam) {
  const Technology tech = tech_100nm();
  for (std::uint32_t p : {1U, 2U, 4U, 8U}) {
    const ArrayModel cam(tech, {16, 32, p, CellType::kCam});
    const ArrayModel ram(tech, {16, 32, p, CellType::kRam});
    EXPECT_GT(cam.cell_area_um2(), ram.cell_area_um2());
  }
}

// ------------------------------------------------- Section 3.6 delays ------
TEST(LsqDelays, ReproducePaperSection36) {
  const LsqEnergyConstants d = derived_constants(tech_100nm());
  const LsqEnergyConstants p = paper_constants();
  // The delay model was fitted on these five points; require <= 7%.
  EXPECT_NEAR(d.delays.conventional_128, p.delays.conventional_128,
              p.delays.conventional_128 * 0.07);
  EXPECT_NEAR(d.delays.conventional_16, p.delays.conventional_16,
              p.delays.conventional_16 * 0.07);
  EXPECT_NEAR(d.delays.distrib_bank, p.delays.distrib_bank,
              p.delays.distrib_bank * 0.07);
  EXPECT_NEAR(d.delays.distrib_bus, p.delays.distrib_bus,
              p.delays.distrib_bus * 0.07);
  EXPECT_NEAR(d.delays.shared, p.delays.shared, p.delays.shared * 0.07);
  EXPECT_NEAR(d.delays.addr_buffer, p.delays.addr_buffer,
              p.delays.addr_buffer * 0.07);
}

TEST(LsqDelays, SamieIsFasterThanConventional) {
  const LsqEnergyConstants d = derived_constants(tech_100nm());
  EXPECT_LT(d.delays.distrib_total, d.delays.conventional_128);
  // Paper: the 128-entry conventional LSQ is ~23% slower than SAMIE.
  const double ratio = d.delays.conventional_128 / d.delays.distrib_total;
  EXPECT_GT(ratio, 1.10);
  EXPECT_LT(ratio, 1.40);
}

TEST(LsqDelays, BusEnergyMatchesPaper) {
  const LsqEnergyConstants d = derived_constants(tech_100nm());
  EXPECT_NEAR(d.samie.bus_send_addr_pj, 54.4, 54.4 * 0.10);
}

// ------------------------------------------------------------- Table 1 ------
struct Table1Row {
  std::uint64_t size_kb;
  std::uint32_t assoc;
  std::uint32_t ports;
  double conv_ns;
  double known_ns;
};

class CacheDelayTable1 : public ::testing::TestWithParam<Table1Row> {};

TEST_P(CacheDelayTable1, WithinSevenPercentOfPaper) {
  const auto& row = GetParam();
  const CacheModel m(tech_100nm(),
                     CacheGeometry{row.size_kb * 1024, row.assoc, 32, row.ports, 32});
  EXPECT_NEAR(m.conventional_delay_ns(), row.conv_ns, row.conv_ns * 0.07);
  EXPECT_NEAR(m.known_line_delay_ns(), row.known_ns, row.known_ns * 0.07);
  // Improvement shape: never negative, never above 25%.
  EXPECT_GE(m.delay_improvement(), 0.0);
  EXPECT_LE(m.delay_improvement(), 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, CacheDelayTable1,
    ::testing::Values(Table1Row{8, 2, 2, 0.865, 0.700},
                      Table1Row{8, 2, 4, 1.014, 0.875},
                      Table1Row{8, 4, 2, 1.008, 0.878},
                      Table1Row{8, 4, 4, 1.307, 1.266},
                      Table1Row{32, 2, 2, 1.195, 1.092},
                      Table1Row{32, 2, 4, 1.551, 1.490},
                      Table1Row{32, 4, 2, 1.194, 1.165},
                      Table1Row{32, 4, 4, 1.693, 1.693}));

TEST(CacheDelay, ImprovementShrinksWithPortsAndSize) {
  const Technology t = tech_100nm();
  const CacheModel small2p(t, {8 * 1024, 2, 32, 2, 32});
  const CacheModel small4p(t, {8 * 1024, 2, 32, 4, 32});
  const CacheModel big2p(t, {32 * 1024, 2, 32, 2, 32});
  EXPECT_GT(small2p.delay_improvement(), small4p.delay_improvement());
  EXPECT_GT(small2p.delay_improvement(), big2p.delay_improvement());
}

TEST(CacheEnergy, ReproducesPaperDcachePair) {
  // 8KB 4-way 4-port 32B lines: 1009 pJ conventional, 276 pJ way-known.
  const CacheModel m(tech_100nm(), {8 * 1024, 4, 32, 4, 32});
  EXPECT_NEAR(m.conventional_energy_pj(), 1009.0, 1009.0 * 0.05);
  EXPECT_NEAR(m.known_line_energy_pj(), 276.0, 276.0 * 0.05);
}

TEST(CacheEnergy, WayKnownAlwaysCheaper) {
  const Technology t = tech_100nm();
  for (std::uint64_t kb : {8ULL, 16ULL, 32ULL}) {
    for (std::uint32_t assoc : {2U, 4U, 8U}) {
      const CacheModel m(t, {kb * 1024, assoc, 32, 2, 32});
      EXPECT_LT(m.known_line_energy_pj(), m.conventional_energy_pj());
    }
  }
}

TEST(TlbEnergy, NearPaperValue) {
  const double e = tlb_access_energy_pj(tech_100nm(), 128, 32, 20, 2);
  EXPECT_NEAR(e, 273.0, 273.0 * 0.15);
}

// ----------------------------------------------- Tables 4/5 (surrogate) ----
// The energy surrogate is a coarse fit (DESIGN.md): require each derived
// constant to stay within a factor band of the published value, and the
// *orderings* the paper's argument rests on to hold exactly.
TEST(EnergySurrogate, WithinFactorBandsOfPaper) {
  const LsqEnergyConstants d = derived_constants(tech_100nm());
  const LsqEnergyConstants p = paper_constants();
  auto in_band = [](double derived, double published, double lo, double hi) {
    EXPECT_GE(derived, published * lo) << "derived " << derived << " vs "
                                       << published;
    EXPECT_LE(derived, published * hi) << "derived " << derived << " vs "
                                       << published;
  };
  in_band(d.conv.addr_cmp_per_addr_pj, p.conv.addr_cmp_per_addr_pj, 0.5, 2.0);
  in_band(d.conv.addr_cmp_base_pj, p.conv.addr_cmp_base_pj, 0.5, 2.0);
  in_band(d.conv.addr_rw_pj, p.conv.addr_rw_pj, 0.5, 2.0);
  in_band(d.conv.datum_rw_pj, p.conv.datum_rw_pj, 0.3, 2.0);
  in_band(d.samie.d_addr_cmp_per_addr_pj, p.samie.d_addr_cmp_per_addr_pj, 0.4, 2.0);
  in_band(d.samie.s_addr_cmp_per_addr_pj, p.samie.s_addr_cmp_per_addr_pj, 0.3, 2.0);
  in_band(d.samie.d_datum_rw_pj, p.samie.d_datum_rw_pj, 0.4, 2.5);
  in_band(d.samie.ab_datum_rw_pj, p.samie.ab_datum_rw_pj, 0.5, 2.0);
  in_band(d.samie.ab_age_rw_pj, p.samie.ab_age_rw_pj, 0.5, 2.0);
  in_band(d.samie.d_translation_rw_pj, p.samie.d_translation_rw_pj, 0.5, 2.5);
}

TEST(EnergySurrogate, OrderingsThePaperReliesOn) {
  const LsqEnergyConstants d = derived_constants(tech_100nm());
  // A conventional associative search is far more expensive than a bank
  // search plus the shared search plus the bus transfer.
  const double conv_search = d.conv.addr_cmp_base_pj + 8 * d.conv.addr_cmp_per_addr_pj;
  const double samie_search = d.samie.d_addr_cmp_base_pj +
                              2 * d.samie.d_addr_cmp_per_addr_pj +
                              d.samie.s_addr_cmp_base_pj +
                              8 * d.samie.s_addr_cmp_per_addr_pj +
                              d.samie.bus_send_addr_pj;
  EXPECT_GT(conv_search, samie_search);
  // Small low-ported arrays beat the big highly-ported ones per access.
  EXPECT_LT(d.samie.d_addr_rw_pj, d.conv.addr_rw_pj);
  EXPECT_LT(d.samie.d_datum_rw_pj, d.conv.datum_rw_pj);
}

// --------------------------------------------------------------- ledgers ---
TEST(ConvLedger, AccumulatesTable4Constants) {
  const LsqEnergyConstants k = paper_constants();
  ConvLsqLedger l(k);
  l.on_addr_search(10);
  EXPECT_DOUBLE_EQ(l.energy_pj(), 452.0 + 10 * 3.53);
  l.on_addr_write();
  l.on_datum_read();
  EXPECT_DOUBLE_EQ(l.energy_pj(), 452.0 + 10 * 3.53 + 57.1 + 93.2);
  EXPECT_EQ(l.searches(), 1U);
  EXPECT_EQ(l.addresses_compared(), 10U);
}

TEST(SamieLedger, BreakdownSumsToTotal) {
  const LsqEnergyConstants k = paper_constants();
  SamieLsqLedger l(k);
  l.on_bus_send();
  l.on_distrib_addr_search(2);
  l.on_distrib_age_search(5);
  l.on_shared_addr_search(8);
  l.on_shared_age_search(3);
  l.on_addrbuf_write();
  l.on_addrbuf_read();
  EXPECT_DOUBLE_EQ(
      l.energy_pj(),
      l.distrib_pj() + l.shared_pj() + l.addrbuf_pj() + l.bus_pj());
  EXPECT_DOUBLE_EQ(l.bus_pj(), 54.4);
  EXPECT_DOUBLE_EQ(l.distrib_pj(), 4.33 + 2 * 2.17 + 19.4 + 5 * 1.21);
  EXPECT_DOUBLE_EQ(l.shared_pj(), 22.7 + 8 * 2.83 + 19.4 + 3 * 2.43);
  EXPECT_DOUBLE_EQ(l.addrbuf_pj(), 2 * (31.6 + 15.7));
}

TEST(AreaIntegrator, AccumulatesComponents) {
  AreaIntegrator a;
  a.add_cycle(10, 5, 1);
  a.add_cycle(10, 0, 0);
  a.add_cycle_conventional(7);
  EXPECT_DOUBLE_EQ(a.distrib(), 20);
  EXPECT_DOUBLE_EQ(a.shared(), 5);
  EXPECT_DOUBLE_EQ(a.addrbuf(), 1);
  EXPECT_DOUBLE_EQ(a.samie_total(), 26);
  EXPECT_DOUBLE_EQ(a.conventional(), 7);
}

// ------------------------------------------------------------ area helpers --
TEST(AreaHelpers, EntryAreasAreConsistent) {
  const LsqEnergyConstants k = paper_constants();
  // Conventional entry: 32b address CAM + 64b datum RAM.
  EXPECT_DOUBLE_EQ(conv_entry_area_um2(k), 32 * 28.0 + 64 * 20.0);
  // SAMIE slot must be much smaller than a conventional entry.
  EXPECT_LT(samie_slot_area_um2(k), conv_entry_area_um2(k));
  EXPECT_GT(samie_entry_fixed_area_um2(k), 0.0);
  EXPECT_GT(addrbuf_slot_area_um2(k), 0.0);
}

TEST(ArrayModel, SearchEnergyTwoTermForm) {
  const ArrayModel cam(tech_100nm(), {8, 27, 2, CellType::kCam});
  const double per = cam.cam_per_entry_energy_pj();
  EXPECT_DOUBLE_EQ(cam.cam_search_energy_pj(0), 8 * per);
  EXPECT_DOUBLE_EQ(cam.cam_search_energy_pj(8), 16 * per);
}

TEST(ArrayModel, DelayGrowsWithEntriesAndPorts) {
  const Technology t = tech_100nm();
  const ArrayModel small(t, {2, 27, 2, CellType::kCam});
  const ArrayModel big(t, {128, 27, 2, CellType::kCam});
  const ArrayModel ported(t, {2, 27, 8, CellType::kCam});
  EXPECT_LT(small.cam_search_delay_ns(), big.cam_search_delay_ns());
  EXPECT_LT(small.cam_search_delay_ns(), ported.cam_search_delay_ns());
}

}  // namespace
}  // namespace samie::energy
