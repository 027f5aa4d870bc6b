// Tests for src/common: rng, fenwick tree, stats, table printer, env.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/env.h"
#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"

namespace fastcoreset {
namespace {

TEST(RngTest, DeterministicAcrossReseed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
  a.Reseed(42);
  Rng c(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), c.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextIndexBoundsAndCoverage) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng.NextIndex(10);
    EXPECT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);  // All values hit over 1000 draws.
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 7.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, SampleDiscreteMatchesWeights) {
  Rng rng(13);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsAPermutationPrefix) {
  Rng rng(17);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(19);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(FenwickTest, PrefixSumsMatchBruteForce) {
  Rng rng(23);
  const size_t n = 257;
  FenwickTree tree(n);
  std::vector<double> reference(n, 0.0);
  for (int round = 0; round < 500; ++round) {
    const size_t i = rng.NextIndex(n);
    const double v = rng.NextDouble() * 10.0;
    tree.Set(i, v);
    reference[i] = v;
  }
  double acc = 0.0;
  for (size_t i = 0; i <= n; ++i) {
    EXPECT_NEAR(tree.PrefixSum(i), acc, 1e-9);
    if (i < n) acc += reference[i];
  }
}

// UpperBound(target) after checking that UpperBoundBatch agrees, both
// as a lone lane and in every lane of a full batch.
size_t CheckedUpperBound(const FenwickTree& tree, double target) {
  const size_t serial = tree.UpperBound(target);
  size_t single = 0;
  tree.UpperBoundBatch({&target, 1}, {&single, 1});
  EXPECT_EQ(single, serial) << "target " << target;
  const std::vector<double> targets(FenwickTree::kBatch, target);
  std::vector<size_t> batched(FenwickTree::kBatch);
  tree.UpperBoundBatch(targets, batched);
  for (size_t slot : batched) EXPECT_EQ(slot, serial) << "target " << target;
  return serial;
}

TEST(FenwickTest, UpperBoundFindsCorrectSlot) {
  FenwickTree tree(4);
  tree.Set(0, 1.0);
  tree.Set(1, 0.0);
  tree.Set(2, 2.0);
  tree.Set(3, 1.0);
  EXPECT_EQ(CheckedUpperBound(tree, 0.5), 0u);
  EXPECT_EQ(CheckedUpperBound(tree, 1.5), 2u);  // Skips the zero-weight slot.
  EXPECT_EQ(CheckedUpperBound(tree, 2.9), 2u);
  EXPECT_EQ(CheckedUpperBound(tree, 3.5), 3u);
}

TEST(FenwickTest, UpperBoundDriftNeverLandsOnZeroMassSlot) {
  // Regression: a target that drifts to (or past) Total() used to be
  // clamped onto the *last slot* even when that slot held zero mass,
  // returning an index the distribution gives probability zero — in
  // Fast-kmeans++ that is a covered point accepted as a duplicate center.
  FenwickTree tree(2);
  tree.Set(0, 1.0);
  tree.Set(1, 0.0);
  EXPECT_EQ(CheckedUpperBound(tree, 1.0), 0u);  // target == Total(), zero tail.
  EXPECT_EQ(CheckedUpperBound(tree, 1.5), 0u);  // past Total().

  // Longer zero-mass tail (the common shape: covered suffix).
  FenwickTree tail(5);
  tail.Set(0, 0.5);
  tail.Set(1, 2.5);
  for (size_t i = 2; i < 5; ++i) tail.Set(i, 0.0);
  EXPECT_EQ(CheckedUpperBound(tail, 3.0), 1u);
  EXPECT_EQ(CheckedUpperBound(tail, 100.0), 1u);
}

TEST(FenwickTest, UpperBoundZeroPrefixFallsForward) {
  // All mass behind the landing slot is zero: the only valid answer is
  // ahead of it.
  FenwickTree tree(4);
  tree.Set(0, 0.0);
  tree.Set(1, 0.0);
  tree.Set(2, 0.0);
  tree.Set(3, 4.0);
  EXPECT_EQ(CheckedUpperBound(tree, 0.0), 3u);
  EXPECT_EQ(CheckedUpperBound(tree, 3.9), 3u);
}

TEST(FenwickTest, UpperBoundBatchMatchesSerialDescent) {
  // Every batch width over trees around the power-of-two edges, with
  // zero-mass runs, at targets on 0, on every exact prefix boundary, on
  // Total() and past it, and uniform in [0, Total()).
  Rng rng(67);
  for (const size_t n : {1, 2, 3, 63, 64, 65, 4097}) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = rng.NextDouble() < 0.25 ? 0.0 : rng.NextDouble();
    }
    const FenwickTree tree(values);
    const double total = tree.Total();
    std::vector<double> targets = {0.0, total, total * (1.0 + 1e-12),
                                   total + 1.0};
    for (size_t i = 1; i < n; ++i) targets.push_back(tree.PrefixSum(i));
    for (int i = 0; i < 200; ++i) targets.push_back(rng.NextDouble() * total);
    std::vector<size_t> expected(targets.size());
    for (size_t t = 0; t < targets.size(); ++t) {
      expected[t] = tree.UpperBound(targets[t]);
    }
    for (size_t width = 1; width <= FenwickTree::kBatch; ++width) {
      std::vector<size_t> batched(targets.size());
      for (size_t b = 0; b < targets.size(); b += width) {
        const size_t lanes = std::min(width, targets.size() - b);
        tree.UpperBoundBatch({targets.data() + b, lanes},
                             {batched.data() + b, lanes});
      }
      ASSERT_EQ(batched, expected) << "n " << n << " width " << width;
    }
  }
}

TEST(FenwickTest, SampleManyMatchesRepeatedSample) {
  Rng wrng(71);
  std::vector<double> weights(10000);
  for (double& w : weights) {
    w = wrng.NextDouble() < 0.1 ? 0.0 : wrng.NextDouble();
  }
  const FenwickTree dist(weights);
  // 20001 draws span several pool chunks, and neither the chunks nor the
  // tail are whole batches.
  for (const size_t threads : {1, 4}) {
    SetNumThreads(threads);
    for (const size_t count : {0, 1, 63, 20001}) {
      Rng serial_rng(73), batched_rng(73);
      std::vector<size_t> serial(count);
      for (size_t& draw : serial) draw = dist.Sample(serial_rng);
      EXPECT_EQ(dist.SampleMany(batched_rng, count), serial)
          << "threads " << threads << " count " << count;
      EXPECT_EQ(batched_rng.NextU64(), serial_rng.NextU64())
          << "threads " << threads << " count " << count;
    }
  }
  ResetNumThreads();
}

TEST(FenwickTest, SampleProportionalToWeights) {
  Rng rng(29);
  FenwickTree tree(3);
  tree.Set(0, 2.0);
  tree.Set(1, 0.0);
  tree.Set(2, 6.0);
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[tree.Sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(FenwickTest, SetOverwritesNotAccumulates) {
  FenwickTree tree(2);
  tree.Set(0, 5.0);
  tree.Set(0, 1.0);
  EXPECT_NEAR(tree.Total(), 1.0, 1e-12);
  EXPECT_NEAR(tree.Get(0), 1.0, 1e-12);
}

TEST(FenwickTest, BulkBuildMatchesRepeatedSet) {
  Rng rng(31);
  const size_t n = 513;  // Off power-of-two to exercise the last level.
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextDouble() * 3.0;
  const FenwickTree bulk(values);
  FenwickTree incremental(n);
  for (size_t i = 0; i < n; ++i) incremental.Set(i, values[i]);
  ASSERT_EQ(bulk.size(), n);
  for (size_t i = 0; i <= n; ++i) {
    EXPECT_NEAR(bulk.PrefixSum(i), incremental.PrefixSum(i), 1e-9);
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(bulk.Get(i), values[i]);
}

TEST(FenwickTest, AssignReplacesExistingMass) {
  FenwickTree tree(size_t{3});
  tree.Set(0, 7.0);
  tree.Assign({1.0, 2.0, 3.0});
  EXPECT_NEAR(tree.Total(), 6.0, 1e-12);
  EXPECT_NEAR(tree.PrefixSum(2), 3.0, 1e-12);
  tree.Assign({4.0, 0.0, 0.0, 0.0, 1.0});  // Resizes too.
  EXPECT_EQ(tree.size(), 5u);
  EXPECT_NEAR(tree.Total(), 5.0, 1e-12);
  FenwickTree empty(size_t{0});  // Grows from empty, then samples.
  empty.Assign({0.0, 5.0, 0.0});
  EXPECT_EQ(empty.size(), 3u);
  Rng rng(53);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(empty.Sample(rng), 1u);
}

TEST(RngTest, SampleDiscreteWithPrecomputedTotalMatchesDistribution) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.SampleDiscrete(weights, 4.0)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, SampleDiscreteOverloadsConsumeIdenticalRngState) {
  // The total-taking overload must draw exactly like the summing one so
  // callers can switch without perturbing seeded experiment streams.
  const std::vector<double> weights = {0.5, 1.5, 0.0, 2.0};
  Rng summing(41), precomputed(41);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(summing.SampleDiscrete(weights),
              precomputed.SampleDiscrete(weights, 4.0));
  }
}

TEST(FenwickTest, IncrementalSetTracksEvolvingMass) {
  // The k-means++ pattern: masses only ever shrink as centers cover
  // points; retired slots must become unsampleable immediately.
  Rng rng(47);
  FenwickTree dist(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(dist.Total(), 10.0, 1e-12);
  dist.Set(3, 0.0);  // "Chosen center": mass retires.
  dist.Set(1, 0.5);  // Improved min-distance.
  EXPECT_NEAR(dist.Total(), 4.5, 1e-12);
  for (int i = 0; i < 2000; ++i) EXPECT_NE(dist.Sample(rng), 3u);
}

TEST(FenwickTest, BulkBuildSamplingAgreesWithLinearScan) {
  // The Fenwick draw and Rng::SampleDiscrete walk the same cumulative
  // distribution; over a shared RNG stream they must pick identical slots
  // (both map target = u * total through the same prefix sums).
  Rng fenwick_rng(59), linear_rng(59);
  std::vector<double> weights(257);
  Rng wrng(61);
  for (double& w : weights) {
    w = wrng.NextDouble() < 0.2 ? 0.0 : wrng.NextDouble();
  }
  weights[0] = 0.0;  // Zero-mass prefix and suffix edge cases.
  weights.back() = 0.0;
  const FenwickTree dist(weights);
  double total = 0.0;
  for (double w : weights) total += w;
  int disagreements = 0;
  for (int i = 0; i < 5000; ++i) {
    const size_t a = dist.Sample(fenwick_rng);
    const size_t b = linear_rng.SampleDiscrete(weights, dist.Total());
    // Identical up to boundary rounding: the Fenwick prefix sums round
    // differently from the serial sweep, so a target landing within one
    // ulp of a slot boundary may resolve to the neighbouring positive
    // slot. Anything more than a hair apart is a real bug.
    if (a != b) ++disagreements;
  }
  EXPECT_LE(disagreements, 5);
  (void)total;
}

TEST(StatsTest, RunningStatMeanVariance) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(x);
  EXPECT_NEAR(stat.Mean(), 5.0, 1e-12);
  EXPECT_NEAR(stat.Variance(), 4.0, 1e-12);
  EXPECT_EQ(stat.Count(), 8u);
  EXPECT_EQ(stat.Min(), 2.0);
  EXPECT_EQ(stat.Max(), 9.0);
}

TEST(StatsTest, VectorHelpersMatchRunningStat) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 10.0};
  RunningStat stat;
  for (double x : xs) stat.Add(x);
  EXPECT_NEAR(Mean(xs), stat.Mean(), 1e-12);
  EXPECT_NEAR(Variance(xs), stat.Variance(), 1e-12);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({}), 0.0);
  RunningStat stat;
  EXPECT_EQ(stat.Mean(), 0.0);
  EXPECT_EQ(stat.Variance(), 0.0);
}

TEST(TablePrinterTest, AlignsColumnsAndPadsShortRows) {
  TablePrinter table;
  table.SetHeader({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator exists.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsCompactly) {
  EXPECT_EQ(TablePrinter::Num(1.0), "1");
  EXPECT_EQ(TablePrinter::Num(614.2, 3), "614.2");
  const std::string big = TablePrinter::Num(3.2e9, 2);
  EXPECT_NE(big.find("e"), std::string::npos);
}

TEST(TablePrinterTest, MeanVarUsesPlusMinus) {
  const std::string s = TablePrinter::MeanVar(1.07, 0.0);
  EXPECT_NE(s.find("±"), std::string::npos);
}

TEST(EnvTest, FallbacksAndParsing) {
  ::unsetenv("FC_TEST_ENV_VAR");
  EXPECT_EQ(EnvInt("FC_TEST_ENV_VAR", 7), 7);
  EXPECT_EQ(EnvDouble("FC_TEST_ENV_VAR", 1.5), 1.5);
  ::setenv("FC_TEST_ENV_VAR", "42", 1);
  EXPECT_EQ(EnvInt("FC_TEST_ENV_VAR", 7), 42);
  ::setenv("FC_TEST_ENV_VAR", "2.25", 1);
  EXPECT_EQ(EnvDouble("FC_TEST_ENV_VAR", 1.5), 2.25);
  ::setenv("FC_TEST_ENV_VAR", "not-a-number", 1);
  EXPECT_EQ(EnvInt("FC_TEST_ENV_VAR", 7), 7);
  ::unsetenv("FC_TEST_ENV_VAR");
}

}  // namespace
}  // namespace fastcoreset
