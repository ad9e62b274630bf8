// Unit tests for src/common: RNG determinism and distributions, the
// sparse memory image, statistics primitives, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sparse_memory.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/types.h"

namespace samie {
namespace {

// ---------------------------------------------------------------- types ---
TEST(Types, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0U);
  EXPECT_EQ(log2_floor(2), 1U);
  EXPECT_EQ(log2_floor(3), 1U);
  EXPECT_EQ(log2_floor(4), 2U);
  EXPECT_EQ(log2_floor(1024), 10U);
  EXPECT_EQ(log2_floor(1ULL << 63), 63U);
}

TEST(Types, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2((1ULL << 40) + 1));
}

TEST(Types, FpRegClassification) {
  EXPECT_FALSE(is_fp_reg(0));
  EXPECT_FALSE(is_fp_reg(31));
  EXPECT_TRUE(is_fp_reg(32));
  EXPECT_TRUE(is_fp_reg(63));
  EXPECT_FALSE(is_fp_reg(kNoReg));
}

// ------------------------------------------------------------------ rng ---
TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, DeriveSeedDecorrelates) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    seen.insert(derive_seed(42, salt));
  }
  EXPECT_EQ(seen.size(), 1000U);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17U);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 r(11);
  std::vector<int> counts(8, 0);
  constexpr int kN = 80000;
  for (int i = 0; i < kN; ++i) ++counts[r.below(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, kN / 8, kN / 8 * 0.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 r(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GeometricMeanApproximatelyRight) {
  Xoshiro256 r(5);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(r.geometric(12.0));
  EXPECT_NEAR(sum / kN, 12.0, 1.0);
}

TEST(Rng, GeometricNeverBelowOne) {
  Xoshiro256 r(6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.geometric(0.1), 1U);
  }
}

TEST(Rng, ChanceThresholdSplitsDrawsExactlyLikeChance) {
  // chance(p) on a raw draw x is uniform() < p; the threshold must put
  // every x on the same side, so check the draws either side of it.
  const auto chance_of = [](std::uint64_t x, double p) {
    return static_cast<double>(x >> 11U) * 0x1.0p-53 < p;
  };
  for (const double p : {1.0 / 5.0, 1.0 / 16.0, 1.0 / 24.0, 0.3, 1e-300,
                         0x1.0p-60, 1.0 - 0x1.0p-53, 0.0}) {
    SCOPED_TRACE(p);
    const std::uint64_t t = Xoshiro256::chance_threshold(p);
    if (t != 0) {
      EXPECT_TRUE(chance_of(t - 1, p));
      EXPECT_TRUE(chance_of(0, p));
    }
    EXPECT_FALSE(chance_of(t, p));
    EXPECT_FALSE(chance_of(~std::uint64_t{0}, p));
  }
  // Same draws as the division-per-call form it replaces.
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 10'000; ++i) {
    std::uint64_t n = 1;
    while (n < 4096 && !a.chance(1.0 / 5.0)) ++n;
    ASSERT_EQ(b.geometric(5.0), n);
  }
}

// -------------------------------------------------------- sparse_memory ---
TEST(SparseMemory, MatchesAByteReferenceAcrossTableGrowth) {
  // Differential: every read must equal what a plain byte map holding
  // the same stores returns, never-written words (0) included. Three
  // address shapes: a dense 64 KB region, a 2 KB-strided one (one line
  // per DistribLSQ bank period, the ammp/art pathology) and random
  // 48-bit addresses, which also drive the table through several growths.
  SparseMemory mem;
  std::map<Addr, std::uint8_t> ref;
  const auto ref_write = [&ref](Addr a, std::uint32_t n, std::uint64_t v) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ref[a + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  const auto ref_read = [&ref](Addr a, std::uint32_t n) {
    std::uint64_t v = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (const auto it = ref.find(a + i); it != ref.end()) {
        v |= static_cast<std::uint64_t>(it->second) << (8 * i);
      }
    }
    return v;
  };

  const std::size_t initial_capacity = mem.capacity();
  Xoshiro256 rng(0x5a77e1ULL);
  std::vector<Addr> random_written;
  std::size_t zero_reads = 0;
  for (int op = 0; op < 200'000; ++op) {
    const std::uint32_t bytes = rng.below(2) == 0 ? 4 : 8;
    const std::uint64_t shape = rng.below(3);
    Addr a = 0;
    if (shape == 0) {
      a = 0x10000000 + rng.below(64 * 1024);
    } else if (shape == 1) {
      a = 0x20000000 + rng.below(4096) * 2048 + rng.below(32);
    } else {
      // Half fresh addresses, half revisits of written ones.
      a = random_written.empty() || rng.below(2) == 0
              ? rng() & ((Addr{1} << 48) - 1)
              : random_written[rng.below(random_written.size())];
    }
    a &= ~Addr{bytes - 1};
    if (rng.below(2) == 0) {
      const std::uint64_t v = rng();
      mem.write(a, bytes, v);
      ref_write(a, bytes, v);
      if (shape == 2) random_written.push_back(a);
    } else {
      const std::uint64_t want = ref_read(a, bytes);
      ASSERT_EQ(mem.read(a, bytes), want)
          << "op " << op << ": " << bytes << "-byte read at 0x" << std::hex
          << a;
      if (want == 0) ++zero_reads;
    }
  }
  EXPECT_GT(zero_reads, 10'000U) << "too few reads of never-written words";
  EXPECT_GE(mem.capacity(), initial_capacity * 16)
      << "the run must force several table growths";
}

// ---------------------------------------------------------------- stats ---
TEST(RunningStat, MeanAndCount) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(StatsHelpers, PercentDeltaAndSaved) {
  EXPECT_DOUBLE_EQ(percent_delta(110, 100), 10.0);
  EXPECT_DOUBLE_EQ(percent_delta(90, 100), -10.0);
  EXPECT_DOUBLE_EQ(percent_saved(18, 100), 82.0);
  EXPECT_DOUBLE_EQ(percent_saved(0, 0), 0.0);
}

TEST(StatsHelpers, Means) {
  EXPECT_DOUBLE_EQ(arithmetic_mean({1, 2, 3}), 2.0);
  EXPECT_NEAR(geometric_mean({1, 8}), std::sqrt(8.0), 1e-12);
  EXPECT_EQ(geometric_mean({}), 0.0);
  EXPECT_EQ(geometric_mean({1.0, -2.0}), 0.0);
}

// ---------------------------------------------------------------- table ---
TEST(Table, RendersAlignedCells) {
  Table t({"a", "long-header"});
  t.add_row({"xx", "1"});
  t.add_row({"y"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a  | long-header |"), std::string::npos);
  EXPECT_NE(s.find("| xx | 1           |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2U);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(-1.5, 1), "-1.5%");
  EXPECT_EQ(Table::pct(2.0, 1), "+2.0%");
}

}  // namespace
}  // namespace samie
