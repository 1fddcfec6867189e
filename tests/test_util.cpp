// Unit tests for src/util: RNG, float comparison, stats, CSV, table.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "util/csv.h"
#include "util/float_cmp.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace dagsched {
namespace {

TEST(FloatCmp, BasicRelations) {
  EXPECT_TRUE(approx_eq(1.0, 1.0));
  EXPECT_TRUE(approx_eq(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_eq(1.0, 1.001));
  EXPECT_TRUE(approx_lt(1.0, 2.0));
  EXPECT_FALSE(approx_lt(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(approx_le(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(approx_gt(2.0, 1.0));
  EXPECT_TRUE(approx_ge(1.0, 1.0 - 1e-12));
  EXPECT_TRUE(approx_zero(1e-12));
  EXPECT_FALSE(approx_zero(1e-3));
}

TEST(FloatCmp, RelativeToleranceForLargeValues) {
  const double big = 1e12;
  EXPECT_TRUE(approx_eq(big, big * (1.0 + 1e-12)));
  EXPECT_FALSE(approx_eq(big, big * 1.001));
}

TEST(FloatCmp, SnapNonnegative) {
  EXPECT_EQ(snap_nonnegative(-1e-12), 0.0);
  EXPECT_EQ(snap_nonnegative(0.5), 0.5);
  EXPECT_LT(snap_nonnegative(-1.0), 0.0);  // big negatives pass through
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng base(7);
  Rng s1 = base.split(0);
  Rng s2 = base.split(1);
  Rng s1b = Rng(7).split(0);
  EXPECT_EQ(s1(), s1b());
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (s1() == s2()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng rng(99);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.uniform01();
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double total = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += rng.exponential(2.0);
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, ParetoAtLeastScale) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RunningStats, WelfordMatchesDirect) {
  RunningStats stats;
  const double xs[] = {1.0, 2.0, 4.0, 8.0};
  for (double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.75);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 8.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 15.0);
  // Sample variance: sum((x-3.75)^2)/3 = (7.5625+3.0625+0.0625+18.0625)/3.
  EXPECT_NEAR(stats.variance(), 28.75 / 3.0, 1e-12);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet samples;
  for (int i = 1; i <= 5; ++i) samples.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(samples.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(samples.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(samples.median(), 3.0);
  EXPECT_DOUBLE_EQ(samples.quantile(0.25), 2.0);
}

TEST(SampleSet, QuantileInterpolates) {
  SampleSet samples;
  samples.add(0.0);
  samples.add(10.0);
  EXPECT_DOUBLE_EQ(samples.quantile(0.5), 5.0);
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/dagsched_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "plain"});
    csv.row({"2", "has,comma"});
    csv.row({"3", "has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Csv, NumericCellsRoundTrip) {
  EXPECT_EQ(CsvWriter::cell(1.5), "1.5");
  EXPECT_EQ(CsvWriter::cell(static_cast<long long>(42)), "42");
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"name", "v"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "23"});
  std::ostringstream oss;
  table.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 3), "1.23");
  EXPECT_EQ(TextTable::num(static_cast<long long>(7)), "7");
  EXPECT_EQ(TextTable::num(std::numeric_limits<double>::infinity()), "inf");
}

}  // namespace
}  // namespace dagsched
