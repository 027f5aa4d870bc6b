// Tests for src/streaming: merge-&-reduce composition, BICO, StreamKM++.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/fastcoreset.h"
#include "src/clustering/cost.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/data/generators.h"
#include "src/eval/distortion.h"
#include "src/streaming/bico.h"
#include "src/streaming/merge_reduce.h"
#include "src/streaming/streamkm.h"

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

/// Facade builder for streaming composition tests.
CoresetBuilder SpecBuilder(const std::string& method, size_t k) {
  api::CoresetSpec spec;
  spec.method = method;
  spec.k = k;
  return api::MakeBuilder(spec).value();
}

TEST(MergeReduceTest, LevelsFollowBinaryCounter) {
  Rng rng(1);
  const Matrix points = Blobs(2, 400, 2, rng);
  StreamingCompressor compressor(
      SpecBuilder("uniform", 4), /*m=*/50, &rng);
  size_t pushed = 0;
  for (size_t start = 0; start + 100 <= points.rows(); start += 100) {
    std::vector<size_t> rows(100);
    for (size_t i = 0; i < 100; ++i) rows[i] = start + i;
    compressor.Push(points.SelectRows(rows));
    ++pushed;
    EXPECT_EQ(compressor.OccupiedLevels(),
              static_cast<size_t>(__builtin_popcountll(pushed)));
  }
  EXPECT_EQ(compressor.BlocksConsumed(), 8u);
  // Eight blocks carry into one level-3 coreset through 4 + 2 + 1 merges;
  // each Finalize() counts its reduction as a snapshot, not a running sum.
  EXPECT_EQ(compressor.ReduceOps(), 7u);
  EXPECT_GT(compressor.Finalize().size(), 0u);
  EXPECT_GT(compressor.Finalize().size(), 0u);
  EXPECT_EQ(compressor.ReduceOps(), 8u);
}

TEST(MergeReduceTest, GlobalIndicesAreCorrect) {
  Rng rng(2);
  Matrix points(600, 1);
  for (size_t i = 0; i < 600; ++i) points.At(i, 0) = static_cast<double>(i);
  const Coreset coreset = StreamingCompress(
      points, {}, SpecBuilder("uniform", 4),
      /*block_size=*/128, /*m=*/40, rng);
  for (size_t r = 0; r < coreset.size(); ++r) {
    ASSERT_NE(coreset.indices[r], Coreset::kSyntheticIndex);
    EXPECT_EQ(coreset.points.At(r, 0),
              points.At(coreset.indices[r], 0));
  }
}

TEST(MergeReduceTest, TotalWeightConcentratesAroundN) {
  Rng rng(3);
  const Matrix points = Blobs(4, 500, 3, rng);
  double total = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    Rng trial(100 + t);
    const Coreset coreset = StreamingCompress(
        points, {}, SpecBuilder("sensitivity", 8),
        /*block_size=*/256, /*m=*/120, trial);
    total += coreset.TotalWeight();
  }
  EXPECT_NEAR(total / trials / 2000.0, 1.0, 0.15);
}

TEST(MergeReduceTest, StreamingCoresetHasLowDistortion) {
  // Composition preserves the coreset property (stacked epsilons).
  Rng rng(4);
  const Matrix points = Blobs(6, 800, 4, rng);
  const Coreset coreset = StreamingCompress(
      points, {}, SpecBuilder("sensitivity", 12),
      /*block_size=*/600, /*m=*/500, rng);
  DistortionOptions options;
  options.k = 12;
  const double distortion =
      CoresetDistortion(points, {}, coreset, options, rng);
  EXPECT_LT(distortion, 1.5);
}

TEST(MergeReduceTest, SingleBlockStreamStillWorks) {
  Rng rng(5);
  const Matrix points = Blobs(2, 100, 2, rng);
  StreamingCompressor compressor(
      SpecBuilder("uniform", 4), 50, &rng);
  compressor.Push(points);
  const Coreset coreset = compressor.Finalize();
  // Finalize re-reduces the single level-0 coreset; the weighted reduction
  // samples with replacement and merges duplicates, so the size is at most
  // m but the total weight is conserved in expectation.
  EXPECT_LE(coreset.size(), 50u);
  EXPECT_GE(coreset.size(), 15u);
  EXPECT_NEAR(coreset.TotalWeight(), 200.0, 60.0);
}

TEST(MergeReduceTest, WeightedBlocksFlowThrough) {
  Rng rng(6);
  Matrix points(200, 1);
  for (size_t i = 0; i < 200; ++i) points.At(i, 0) = static_cast<double>(i);
  const std::vector<double> weights(200, 3.0);
  const Coreset coreset = StreamingCompress(
      points, weights, SpecBuilder("uniform", 4),
      /*block_size=*/64, /*m=*/30, rng);
  EXPECT_NEAR(coreset.TotalWeight(), 600.0, 60.0);
}

TEST(BicoTest, FeatureBudgetRespected) {
  Rng rng(7);
  const Matrix points = Blobs(10, 500, 3, rng);
  BicoOptions options;
  options.max_features = 100;
  Bico bico(3, options);
  bico.InsertAll(points);
  EXPECT_LE(bico.NumFeatures(), 100u);
  EXPECT_GT(bico.NumFeatures(), 5u);
}

TEST(BicoTest, WeightConservation) {
  Rng rng(8);
  const Matrix points = Blobs(5, 300, 2, rng);
  Bico bico(2, {.max_features = 4000});
  bico.InsertAll(points);
  const Coreset coreset = bico.ExtractCoreset();
  EXPECT_NEAR(coreset.TotalWeight(), 1500.0, 1e-6);
}

TEST(BicoTest, CentroidOfSingleClusterIsItsMean) {
  Rng rng(9);
  Matrix points(500, 2);
  for (double& x : points.data()) x = rng.NextGaussian();
  BicoOptions options;
  options.max_features = 1;  // Forced to merge everything.
  Bico bico(2, options);
  bico.InsertAll(points);
  const Coreset coreset = bico.ExtractCoreset();
  ASSERT_GE(coreset.size(), 1u);
  // Weighted centroid of the extract equals the data mean.
  std::vector<double> centroid(2, 0.0);
  double total = 0.0;
  for (size_t r = 0; r < coreset.size(); ++r) {
    total += coreset.weights[r];
    for (size_t j = 0; j < 2; ++j) {
      centroid[j] += coreset.weights[r] * coreset.points.At(r, j);
    }
  }
  const auto mean = points.ColumnMeans();
  EXPECT_NEAR(centroid[0] / total, mean[0], 1e-6);
  EXPECT_NEAR(centroid[1] / total, mean[1], 1e-6);
}

TEST(BicoTest, WeightedInsertions) {
  Bico bico(1, {.max_features = 4000});
  const std::vector<double> p1 = {0.0};
  const std::vector<double> p2 = {10.0};
  bico.Insert(p1, 5.0);
  bico.Insert(p2, 1.0);
  const Coreset coreset = bico.ExtractCoreset();
  EXPECT_NEAR(coreset.TotalWeight(), 6.0, 1e-9);
}

TEST(BicoTest, PreservesKMeansCostOnEasyData) {
  // The CF summary should let k-means++ solve the blobs about as well as
  // on the raw data (BICO's positive case).
  Rng rng(10);
  const Matrix points = Blobs(5, 1000, 2, rng);
  BicoOptions options;
  options.max_features = 500;
  Bico bico(2, options);
  bico.InsertAll(points);
  const Coreset coreset = bico.ExtractCoreset();

  Rng solve_rng(11);
  const Clustering on_coreset =
      KMeansPlusPlus(coreset.points, coreset.weights, 5, 2, solve_rng);
  const double cost_full = CostToCenters(points, {}, on_coreset.centers, 2);
  Rng direct_rng(12);
  const double cost_direct =
      KMeansPlusPlus(points, {}, 5, 2, direct_rng).total_cost;
  EXPECT_LT(cost_full, 10.0 * cost_direct);
}

TEST(BicoTest, RebuildDoublesThreshold) {
  Rng rng(13);
  const Matrix points = Blobs(50, 40, 2, rng, /*box=*/5000.0);
  BicoOptions options;
  options.max_features = 20;
  Bico bico(2, options);
  bico.InsertAll(points);
  EXPECT_GT(bico.rebuilds(), 0u);
  EXPECT_LE(bico.NumFeatures(), 20u);
}

TEST(StreamKmTest, ReduceProducesWeightedRepresentatives) {
  Rng rng(14);
  const Matrix points = Blobs(4, 250, 3, rng);
  const Coreset coreset = StreamKmReduce(points, {}, 60, rng);
  EXPECT_EQ(coreset.size(), 60u);
  EXPECT_NEAR(coreset.TotalWeight(), 1000.0, 1e-6);
}

TEST(StreamKmTest, SmallInputPassesThrough) {
  Rng rng(15);
  Matrix points(10, 2);
  for (double& x : points.data()) x = rng.Uniform(0.0, 1.0);
  const Coreset coreset = StreamKmReduce(points, {}, 50, rng);
  EXPECT_EQ(coreset.size(), 10u);
  for (double w : coreset.weights) EXPECT_EQ(w, 1.0);
}

TEST(StreamKmTest, StreamingViaMergeReduce) {
  Rng rng(16);
  const Matrix points = Blobs(5, 600, 3, rng);
  const Coreset coreset = StreamingCompress(
      points, {}, SpecBuilder("stream_km", 5), /*block_size=*/512, /*m=*/200,
      rng);
  EXPECT_EQ(coreset.size(), 200u);
  EXPECT_NEAR(coreset.TotalWeight(), 3000.0, 1e-6);
  DistortionOptions options;
  options.k = 5;
  const double distortion =
      CoresetDistortion(points, {}, coreset, options, rng);
  EXPECT_LT(distortion, 3.0);
}

}  // namespace
}  // namespace fastcoreset
