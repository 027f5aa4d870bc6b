// Tests for src/core: importance machinery and the five samplers
// (tests/api_test.cc covers the facade that fronts them).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/fastcoreset.h"
#include "src/clustering/cost.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/core/fast_coreset.h"
#include "src/core/importance.h"
#include "src/core/lightweight_coreset.h"
#include "src/core/sensitivity_sampling.h"
#include "src/core/uniform_sampling.h"
#include "src/core/welterweight_coreset.h"
#include "src/data/generators.h"
#include "src/service/fingerprint.h"

namespace fastcoreset {
namespace {

Matrix Blobs(size_t blobs, size_t per_blob, size_t d, Rng& rng,
             double box = 500.0) {
  Matrix points(blobs * per_blob, d);
  std::vector<double> center(d);
  size_t row_idx = 0;
  for (size_t b = 0; b < blobs; ++b) {
    for (double& x : center) x = rng.Uniform(0.0, box);
    for (size_t p = 0; p < per_blob; ++p) {
      auto row = points.Row(row_idx++);
      for (size_t j = 0; j < d; ++j) row[j] = center[j] + rng.NextGaussian();
    }
  }
  return points;
}

TEST(ImportanceTest, SensitivitiesSumToTwiceClusterCount) {
  Rng rng(1);
  const Matrix points = Blobs(4, 50, 2, rng);
  const Clustering solution = KMeansPlusPlus(points, {}, 4, 2, rng);
  const ImportanceScores scores = ComputeSensitivities(
      points, {}, solution.assignment, solution.centers, 2);
  // Sum over each cluster of (cost ratio + weight ratio) = 2 per cluster.
  EXPECT_NEAR(scores.total, 2.0 * 4.0, 1e-6);
  for (double s : scores.sigma) EXPECT_GE(s, 0.0);
}

TEST(ImportanceTest, OutlierGetsHighScore) {
  // 99 points at origin + 1 far outlier, 1 cluster: the outlier holds
  // nearly all the cost mass.
  Matrix points(100, 1);
  points.At(99, 0) = 1000.0;
  Matrix center(1, 1);
  center.At(0, 0) = 10.0;
  const std::vector<size_t> assignment(100, 0);
  const ImportanceScores scores =
      ComputeSensitivities(points, {}, assignment, center, 2);
  for (size_t i = 0; i < 99; ++i) EXPECT_LT(scores.sigma[i], scores.sigma[99]);
  EXPECT_GT(scores.sigma[99], 0.9);
}

// The core unbiasedness property: E[cost(Ω, C)] = cost(P, C) for a fixed
// candidate solution C.
TEST(ImportanceTest, WeightedEstimatorIsUnbiased) {
  Rng rng(2);
  const Matrix points = Blobs(3, 60, 2, rng);
  const Clustering solution = KMeansPlusPlus(points, {}, 3, 2, rng);
  const ImportanceScores scores = ComputeSensitivities(
      points, {}, solution.assignment, solution.centers, 2);

  // Probe solution: a *different* random clustering.
  Rng probe_rng(3);
  const Clustering probe = KMeansPlusPlus(points, {}, 5, 2, probe_rng);
  const double true_cost = CostToCenters(points, {}, probe.centers, 2);

  double estimate_sum = 0.0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    Rng trial_rng(100 + t);
    const Coreset coreset =
        SampleByImportance(points, {}, scores, 40, trial_rng);
    estimate_sum +=
        CostToCenters(coreset.points, coreset.weights, probe.centers, 2);
  }
  EXPECT_NEAR(estimate_sum / trials / true_cost, 1.0, 0.15);
}

TEST(ImportanceTest, TotalWeightConcentratesAroundN) {
  Rng rng(4);
  const Matrix points = Blobs(4, 100, 3, rng);
  const Clustering solution = KMeansPlusPlus(points, {}, 4, 2, rng);
  const ImportanceScores scores = ComputeSensitivities(
      points, {}, solution.assignment, solution.centers, 2);
  double total = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    Rng trial_rng(200 + t);
    total += SampleByImportance(points, {}, scores, 100, trial_rng)
                 .TotalWeight();
  }
  EXPECT_NEAR(total / trials / static_cast<double>(points.rows()), 1.0, 0.1);
}

TEST(ImportanceTest, DuplicateDrawsAreMerged) {
  // Tiny dataset + many samples: indices must be unique in the output.
  Matrix points(3, 1);
  points.At(1, 0) = 1.0;
  points.At(2, 0) = 2.0;
  ImportanceScores scores;
  scores.sigma = {1.0, 1.0, 1.0};
  scores.total = 3.0;
  Rng rng(5);
  const Coreset coreset = SampleByImportance(points, {}, scores, 100, rng);
  EXPECT_LE(coreset.size(), 3u);
  std::vector<size_t> sorted = coreset.indices;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  EXPECT_NEAR(coreset.TotalWeight(), 3.0, 1e-9);
}

// Importance sampling with the draws merged in a std::map and the rows
// copied serially: the reference the sort-and-count, parallel-gather
// version must match bit for bit.
Coreset ReferenceSampleByImportance(const Matrix& points,
                                    const std::vector<double>& weights,
                                    const ImportanceScores& scores, size_t m,
                                    Rng& rng) {
  const FenwickTree distribution(scores.sigma);
  std::map<size_t, size_t> hits;
  for (size_t draw = 0; draw < m; ++draw) {
    ++hits[distribution.Sample(rng)];
  }
  Coreset coreset;
  coreset.points = Matrix(hits.size(), points.cols());
  size_t row = 0;
  const double md = static_cast<double>(m);
  for (const auto& [idx, count] : hits) {
    coreset.indices.push_back(idx);
    coreset.points.CopyRowFrom(points, idx, row++);
    const double w = weights.empty() ? 1.0 : weights[idx];
    coreset.weights.push_back(static_cast<double>(count) * w * scores.total /
                              (md * scores.sigma[idx]));
  }
  return coreset;
}

void ExpectSameCoreset(const Coreset& actual, const Coreset& expected) {
  EXPECT_EQ(actual.indices, expected.indices);
  ASSERT_EQ(actual.weights.size(), expected.weights.size());
  EXPECT_EQ(std::memcmp(actual.weights.data(), expected.weights.data(),
                        expected.weights.size() * sizeof(double)),
            0);
  ASSERT_EQ(actual.points.rows(), expected.points.rows());
  ASSERT_EQ(actual.points.cols(), expected.points.cols());
  EXPECT_EQ(std::memcmp(actual.points.data().data(),
                        expected.points.data().data(),
                        expected.points.data().size() * sizeof(double)),
            0);
}

TEST(ImportanceTest, SampleByImportanceMatchesMapReferenceBitForBit) {
  struct Case {
    const char* name;
    size_t n;
    size_t m;
    bool weighted;
    bool zero_sigma_slot;
  };
  // Heavy duplicates (m >> n); a large weighted case whose distinct rows
  // exceed the 4096-row serial cutoff; a zero-sigma slot.
  const Case cases[] = {{"duplicates", 50, 10000, false, false},
                        {"weighted", 20000, 12000, true, false},
                        {"zero_sigma", 300, 2000, true, true}};
  for (const Case& c : cases) {
    Rng data_rng(17);
    const Matrix points = Blobs(5, c.n / 5, 3, data_rng);
    std::vector<double> weights;
    if (c.weighted) {
      for (size_t i = 0; i < c.n; ++i) {
        weights.push_back(data_rng.Uniform(0.5, 4.0));
      }
    }
    ImportanceScores scores;
    for (size_t i = 0; i < c.n; ++i) {
      scores.sigma.push_back(data_rng.Uniform(0.01, 1.0));
    }
    if (c.zero_sigma_slot) scores.sigma[c.n / 2] = 0.0;
    for (double s : scores.sigma) scores.total += s;

    Rng ref_rng(99);
    const Coreset expected =
        ReferenceSampleByImportance(points, weights, scores, c.m, ref_rng);
    for (const size_t threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << c.name << " threads " << threads);
      SetNumThreads(threads);
      Rng rng(99);
      const Coreset actual =
          SampleByImportance(points, weights, scores, c.m, rng);
      ExpectSameCoreset(actual, expected);
      Rng ref_after = ref_rng;
      EXPECT_EQ(rng.NextU64(), ref_after.NextU64());
      if (c.zero_sigma_slot) {
        EXPECT_EQ(std::count(actual.indices.begin(), actual.indices.end(),
                             c.n / 2),
                  0);
      }
    }
  }
  ResetNumThreads();
}

TEST(ImportanceTest, DriftedTargetNeverHitsZeroSigmaPoint) {
  // Regression: the cumulative sweep could attribute a drifted target to
  // a point with sigma == 0 (a zero-width interval), whose coreset weight
  // then divides by zero. Model the drift with a `total` slightly above
  // the true sigma sum and a zero-sigma trailing point.
  Matrix points(3, 1);
  points.At(0, 0) = 1.0;
  points.At(1, 0) = 2.0;
  points.At(2, 0) = 3.0;
  ImportanceScores scores;
  scores.sigma = {1.0, 1.0, 0.0};
  scores.total = 2.5;  // > 1 + 1: every target above 2 overshoots.
  Rng rng(7);
  const Coreset coreset = SampleByImportance(points, {}, scores, 64, rng);
  double weight_sum = 0.0;
  for (size_t r = 0; r < coreset.size(); ++r) {
    EXPECT_NE(coreset.indices[r], 2u);  // sigma == 0 is unsampleable.
    EXPECT_TRUE(std::isfinite(coreset.weights[r]));
    weight_sum += coreset.weights[r];
  }
  EXPECT_GT(weight_sum, 0.0);
}

TEST(ImportanceTest, LeadingZeroSigmaPointIsSkipped) {
  Matrix points(3, 1);
  ImportanceScores scores;
  scores.sigma = {0.0, 2.0, 1.0};
  scores.total = 3.0;
  Rng rng(11);
  const Coreset coreset = SampleByImportance(points, {}, scores, 64, rng);
  for (size_t r = 0; r < coreset.size(); ++r) {
    EXPECT_NE(coreset.indices[r], 0u);
    EXPECT_TRUE(std::isfinite(coreset.weights[r]));
  }
}

TEST(ImportanceTest, DegenerateAllPointsOnCenterCluster) {
  // Every point sits exactly on the single center, so the cost term of
  // eq. (1) vanishes and sigma reduces to w_i / W — zero for zero-weight
  // points. Sampling must never pick those (infinite weight) and the
  // pipeline must stay finite end to end.
  const size_t n = 64;
  Matrix points(n, 2);  // All at the origin.
  Matrix center(1, 2);
  const std::vector<size_t> assignment(n, 0);
  std::vector<double> weights(n, 1.0);
  weights[0] = 0.0;
  weights[n - 1] = 0.0;
  const ImportanceScores scores =
      ComputeSensitivities(points, weights, assignment, center, 2);
  EXPECT_EQ(scores.sigma[0], 0.0);
  EXPECT_EQ(scores.sigma[n - 1], 0.0);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Coreset coreset =
        SampleByImportance(points, weights, scores, 16, rng);
    for (size_t r = 0; r < coreset.size(); ++r) {
      EXPECT_NE(coreset.indices[r], 0u);
      EXPECT_NE(coreset.indices[r], n - 1);
      EXPECT_TRUE(std::isfinite(coreset.weights[r]));
    }
  }
}

TEST(ImportanceTest, CenterCorrectionRestoresClusterWeights) {
  Rng rng(6);
  const Matrix points = Blobs(3, 50, 2, rng);
  const Clustering solution = KMeansPlusPlus(points, {}, 3, 2, rng);
  const ImportanceScores scores = ComputeSensitivities(
      points, {}, solution.assignment, solution.centers, 2);
  Coreset coreset = SampleByImportance(points, {}, scores, 30, rng);
  const double eps = 0.1;
  ApplyCenterCorrection(points, {}, solution.assignment, solution.centers,
                        eps, &coreset);
  // After correction, total weight >= n (each cluster topped up to at
  // least (1+eps) * cluster weight when undersampled).
  EXPECT_GE(coreset.TotalWeight(), 150.0 - 1e-6);
  EXPECT_LE(coreset.TotalWeight(), (1.0 + eps) * 150.0 + 150.0);
}

TEST(UniformTest, UnweightedWithoutReplacement) {
  Rng rng(7);
  Matrix points(100, 2);
  for (double& x : points.data()) x = rng.Uniform(0.0, 1.0);
  const Coreset coreset = UniformSamplingCoreset(points, {}, 20, rng);
  EXPECT_EQ(coreset.size(), 20u);
  for (double w : coreset.weights) EXPECT_NEAR(w, 5.0, 1e-12);
  std::vector<size_t> sorted = coreset.indices;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(UniformTest, MLargerThanNReturnsEverything) {
  Rng rng(8);
  Matrix points(10, 1);
  const Coreset coreset = UniformSamplingCoreset(points, {}, 50, rng);
  EXPECT_EQ(coreset.size(), 10u);
  EXPECT_NEAR(coreset.TotalWeight(), 10.0, 1e-12);
}

TEST(UniformTest, WeightedInputPreservesTotalWeight) {
  Rng rng(9);
  Matrix points(50, 1);
  for (size_t i = 0; i < 50; ++i) points.At(i, 0) = static_cast<double>(i);
  std::vector<double> weights(50, 2.0);
  const Coreset coreset = UniformSamplingCoreset(points, weights, 25, rng);
  EXPECT_NEAR(coreset.TotalWeight(), 100.0, 1e-9);
}

TEST(UniformTest, UnweightedInclusionIsUniform) {
  // Every input position should appear with probability m/n.
  const size_t n = 2000, m = 100;
  std::vector<int> appearances(n, 0);
  const int trials = 300;
  Matrix points(n, 1);
  for (size_t i = 0; i < n; ++i) points.At(i, 0) = static_cast<double>(i);
  for (int t = 0; t < trials; ++t) {
    Rng rng(500 + t);
    const Coreset coreset = UniformSamplingCoreset(points, {}, m, rng);
    for (size_t idx : coreset.indices) ++appearances[idx];
  }
  // Expected appearances = trials * m / n = 15. Check first/middle/last
  // deciles are all close (no positional bias).
  auto decile_mean = [&](size_t begin) {
    double sum = 0.0;
    for (size_t i = begin; i < begin + n / 10; ++i) sum += appearances[i];
    return sum / (n / 10.0);
  };
  const double expected = trials * static_cast<double>(m) / n;
  EXPECT_NEAR(decile_mean(0), expected, 0.15 * expected);
  EXPECT_NEAR(decile_mean(n / 2), expected, 0.15 * expected);
  EXPECT_NEAR(decile_mean(n - n / 10), expected, 0.15 * expected);
}

TEST(UniformTest, MissesOutliersOnCOutlierData) {
  // The paper's central negative result for uniform sampling: on the
  // c-outlier dataset, a small uniform sample almost surely misses all c
  // outliers.
  Rng rng(10);
  const size_t n = 20000, c = 10;
  const Matrix points = GenerateCOutlier(n, c, 5, 1e6, rng);
  const Coreset coreset = UniformSamplingCoreset(points, {}, 100, rng);
  size_t outliers_sampled = 0;
  for (size_t idx : coreset.indices) {
    if (idx >= n - c) ++outliers_sampled;
  }
  EXPECT_EQ(outliers_sampled, 0u);
}

TEST(SensitivityTest, CapturesOutliersOnCOutlierData) {
  Rng rng(11);
  const size_t n = 20000, c = 10;
  const Matrix points = GenerateCOutlier(n, c, 5, 1e6, rng);
  const Coreset coreset =
      SensitivitySamplingCoreset(points, {}, /*k=*/20, /*m=*/200, 2, rng);
  size_t outliers_sampled = 0;
  for (size_t idx : coreset.indices) {
    if (idx >= n - c) ++outliers_sampled;
  }
  EXPECT_GT(outliers_sampled, 0u);
}

TEST(LightweightTest, SizeAndWeightSum) {
  Rng rng(12);
  const Matrix points = Blobs(5, 100, 3, rng);
  const Coreset coreset = LightweightCoreset(points, {}, 100, 2, rng);
  EXPECT_LE(coreset.size(), 100u);
  EXPECT_GT(coreset.size(), 50u);
  EXPECT_NEAR(coreset.TotalWeight(), 500.0, 150.0);
}

TEST(LightweightTest, BiasedTowardFarFromMean) {
  // Points at distance 0 and R from the mean: far points should be
  // sampled with much higher probability per point.
  Matrix points(1000, 1);
  for (size_t i = 0; i < 10; ++i) points.At(i, 0) = 1000.0;
  Rng rng(13);
  const Coreset coreset = LightweightCoreset(points, {}, 50, 2, rng);
  size_t far_sampled = 0;
  for (size_t idx : coreset.indices) {
    if (idx < 10) ++far_sampled;
  }
  EXPECT_GT(far_sampled, 5u);  // 10 far points carry ~half the sigma mass.
}

TEST(WelterweightTest, DefaultJIsLogK) {
  EXPECT_EQ(DefaultWelterweightJ(100), 7u);  // ceil(log2 100)
  EXPECT_EQ(DefaultWelterweightJ(2), 1u);
  EXPECT_EQ(DefaultWelterweightJ(1), 1u);
}

TEST(WelterweightTest, JEqualsOneMatchesLightweightShape) {
  Rng rng(14);
  const Matrix points = Blobs(4, 100, 2, rng);
  const Coreset coreset =
      WelterweightCoreset(points, {}, /*k=*/16, /*j=*/1, 80, 2, rng);
  EXPECT_GT(coreset.size(), 0u);
  EXPECT_NEAR(coreset.TotalWeight(), 400.0, 120.0);
}

TEST(FastCoresetTest, EndToEndSizeAndWeights) {
  Rng rng(15);
  const Matrix points = Blobs(8, 200, 10, rng);
  const Coreset coreset = FastCoreset(points, {}, 8, 300, 2, {}, rng);
  EXPECT_LE(coreset.size(), 300u);
  EXPECT_GT(coreset.size(), 100u);
  EXPECT_NEAR(coreset.TotalWeight(), 1600.0, 400.0);
  for (double w : coreset.weights) EXPECT_GT(w, 0.0);
}

TEST(FastCoresetTest, CapturesOutliers) {
  Rng rng(16);
  const size_t n = 20000, c = 10;
  const Matrix points = GenerateCOutlier(n, c, 5, 1e6, rng);
  const Coreset coreset = FastCoreset(points, {}, 20, 200, 2, {}, rng);
  size_t outliers_sampled = 0;
  for (size_t idx : coreset.indices) {
    if (idx != Coreset::kSyntheticIndex && idx >= n - c) ++outliers_sampled;
  }
  EXPECT_GT(outliers_sampled, 0u);
}

TEST(FastCoresetTest, DefaultMIs40K) {
  // The 40 * k default lives in the facade (CoresetSpec::EffectiveM); the
  // core entry point takes an explicit m.
  Rng rng(17);
  const Matrix points = Blobs(4, 400, 3, rng);
  api::CoresetSpec spec;
  spec.method = "fast_coreset";
  spec.k = 4;
  spec.m = 0;  // default 40k = 160
  const auto result = api::Build(spec, points, {}, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->diagnostics.m_effective, 160u);
  EXPECT_LE(result->coreset.size(), 160u);
  EXPECT_GT(result->coreset.size(), 80u);
}

TEST(FastCoresetTest, KMedianMode) {
  Rng rng(18);
  const Matrix points = Blobs(5, 100, 4, rng);
  const Coreset coreset = FastCoreset(points, {}, 5, 150, 1, {}, rng);
  EXPECT_GT(coreset.size(), 0u);
  EXPECT_NEAR(coreset.TotalWeight(), 500.0, 150.0);
}

TEST(FastCoresetTest, SpreadReductionPathProducesValidCoreset) {
  Rng rng(19);
  const Matrix points = GenerateSpreadDataset(5000, 30, rng);
  FastCoresetOptions options;
  options.use_spread_reduction = true;
  options.use_jl = false;  // 2-D input.
  const Coreset coreset = FastCoreset(points, {}, 10, 200, 2, options, rng);
  EXPECT_GT(coreset.size(), 0u);
  // Coreset points must be original dataset rows (not spread-reduced).
  for (size_t r = 0; r < coreset.size(); ++r) {
    if (coreset.indices[r] == Coreset::kSyntheticIndex) continue;
    EXPECT_EQ(coreset.points.At(r, 0), points.At(coreset.indices[r], 0));
  }
  EXPECT_NEAR(coreset.TotalWeight(), 5000.0, 1500.0);
}

TEST(FastCoresetTest, CenterCorrectionAddsSyntheticRows) {
  Rng rng(20);
  const Matrix points = Blobs(4, 100, 3, rng);
  FastCoresetOptions options;
  options.center_correction = true;
  const Coreset coreset = FastCoreset(points, {}, 4, 50, 2, options, rng);
  size_t synthetic = 0;
  for (size_t idx : coreset.indices) {
    if (idx == Coreset::kSyntheticIndex) ++synthetic;
  }
  EXPECT_GT(synthetic, 0u);
  EXPECT_LE(synthetic, 4u);
}

TEST(CoresetFromAssignmentTest, ArbitraryPartitionWorks) {
  // Even a mediocre partition (round-robin) yields a valid unbiased
  // compression — just with worse constants.
  Rng rng(10);
  const Matrix points = Blobs(4, 200, 3, rng, /*box=*/100.0);
  std::vector<size_t> assignment(points.rows());
  for (size_t i = 0; i < points.rows(); ++i) assignment[i] = i % 4;
  const Coreset coreset =
      CoresetFromAssignment(points, {}, assignment, 4, 300, 2, rng);
  EXPECT_NEAR(coreset.TotalWeight() / 800.0, 1.0, 0.25);
}

TEST(CoresetFromAssignmentTest, UnusedAndZeroWeightClustersArePinned) {
  // z = 2 refinement edge cases: cluster 2 has no points (its center stays
  // a row of zeros) and every point of cluster 3 has weight 0 (its center
  // sum stays zero and is not divided). The fingerprint pins the result of
  // adding each cluster's members in ascending index order.
  Rng rng(23);
  const Matrix points = Blobs(4, 150, 3, rng, /*box=*/100.0);
  std::vector<size_t> assignment(points.rows());
  std::vector<double> weights(points.rows());
  const size_t used_ids[] = {0, 1, 3, 4};
  for (size_t i = 0; i < points.rows(); ++i) {
    assignment[i] = used_ids[(i * 7) % 4];
    weights[i] = assignment[i] == 3 ? 0.0 : 1.0 + static_cast<double>(i % 5);
  }
  const Coreset coreset =
      CoresetFromAssignment(points, weights, assignment, 5, 200, 2, rng);
  for (const size_t idx : coreset.indices) EXPECT_NE(assignment[idx], 3u);
  EXPECT_EQ(service::FingerprintHex(service::FingerprintCoreset(coreset)),
            "460a910422584fc6");
}

TEST(CoresetTest, TotalWeightSurvivesMixedMagnitudes) {
  // Adversarial mix: one huge weight followed by many tiny ones. Naive
  // left-to-right summation absorbs every +1.0 into 1e16 (ulp 2) and
  // returns exactly 1e16; Kahan compensation keeps all of them.
  Coreset coreset;
  coreset.weights.assign(10000, 1.0);
  coreset.weights.insert(coreset.weights.begin(), 1.0e16);
  EXPECT_EQ(coreset.TotalWeight(), 1.0e16 + 10000.0);
}

TEST(CoresetTest, TotalWeightMatchesLongDoubleReference) {
  // Alternating magnitudes, the shape synthetic center-correction rows
  // produce: heavy representatives interleaved with light samples.
  Rng rng(99);
  Coreset coreset;
  long double reference = 0.0L;
  for (int i = 0; i < 4096; ++i) {
    const double w =
        (i % 2 == 0) ? rng.Uniform(1e11, 1e12) : rng.Uniform(1e-3, 1e-2);
    coreset.weights.push_back(w);
    reference += static_cast<long double>(w);
  }
  const double kahan = coreset.TotalWeight();
  // Kahan stays within a couple of ulps of the extended-precision
  // reference.
  EXPECT_NEAR(kahan, static_cast<double>(reference),
              std::abs(static_cast<double>(reference)) * 1e-15);
  // The tiny terms must not have been dropped wholesale: each one sits
  // below half an ulp of the ~1e15 running total (so naive summation
  // discards every single one), yet their combined mass (~2048 * 5e-3 ≈
  // 10) is far above that ulp (~0.125) — a correct total therefore
  // differs from the heavy-terms-only sum.
  long double heavy_only = 0.0L;
  for (size_t i = 0; i < coreset.weights.size(); i += 2) {
    heavy_only += static_cast<long double>(coreset.weights[i]);
  }
  EXPECT_NE(kahan, static_cast<double>(heavy_only));
}

}  // namespace
}  // namespace fastcoreset
