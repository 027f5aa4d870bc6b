// Tests for the beyond-the-paper extensions: group sampling (STOC'21
// construction) and HST tree-greedy seeding (Section 8.4).

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/clustering/cost.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/clustering/tree_greedy.h"
#include "src/core/fast_coreset.h"
#include "src/core/group_sampling.h"
#include "src/data/generators.h"
#include "src/eval/distortion.h"
#include "src/geometry/distance.h"

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

TEST(GroupSamplingTest, TotalWeightConcentratesAroundN) {
  Rng rng(1);
  const Matrix points = Blobs(6, 200, 4, rng);
  double total = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    Rng trial(100 + t);
    total +=
        GroupSamplingCoreset(points, {}, 6, 200, 2, {}, trial).TotalWeight();
  }
  EXPECT_NEAR(total / trials / 1200.0, 1.0, 0.1);
}

TEST(GroupSamplingTest, CloseRepresentativesAreSynthetic) {
  Rng rng(2);
  const Matrix points = Blobs(4, 150, 3, rng);
  const Coreset coreset = GroupSamplingCoreset(points, {}, 4, 100, 2, {}, rng);
  size_t synthetic = 0;
  for (size_t idx : coreset.indices) {
    if (idx == Coreset::kSyntheticIndex) ++synthetic;
  }
  // Close-point representatives exist (most blob mass is near a center).
  EXPECT_GT(synthetic, 0u);
  EXPECT_LE(synthetic, 4u);
}

TEST(GroupSamplingTest, LowDistortionOnBlobs) {
  Rng rng(3);
  const Matrix points = Blobs(8, 400, 6, rng);
  const Coreset coreset = GroupSamplingCoreset(points, {}, 8, 400, 2, {}, rng);
  DistortionOptions probe;
  probe.k = 8;
  EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 1.5);
}

TEST(GroupSamplingTest, CapturesOutliers) {
  Rng rng(4);
  const size_t n = 20000, c = 10;
  const Matrix points = GenerateCOutlier(n, c, 5, 1e6, rng);
  const Coreset coreset = GroupSamplingCoreset(points, {}, 20, 200, 2, {}, rng);
  // Either an outlier point was sampled, or an outlier-cluster center
  // representative carries its weight; check via cost coverage: a probe
  // centered only on the main blob must still see the outliers' cost.
  Matrix main_blob_center(1, 5);
  const double coreset_cost =
      CostToCenters(coreset.points, coreset.weights, main_blob_center, 2);
  const double full_cost = CostToCenters(points, {}, main_blob_center, 2);
  EXPECT_NEAR(coreset_cost / full_cost, 1.0, 0.3);
}

TEST(GroupSamplingTest, UnbiasedCostEstimator) {
  Rng rng(5);
  const Matrix points = Blobs(5, 200, 3, rng);
  Rng probe_rng(6);
  const Clustering probe = KMeansPlusPlus(points, {}, 7, 2, probe_rng);
  const double true_cost = CostToCenters(points, {}, probe.centers, 2);
  double estimate = 0.0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng trial(700 + t);
    const Coreset coreset =
        GroupSamplingCoreset(points, {}, 5, 150, 2, {}, trial);
    estimate += CostToCenters(coreset.points, coreset.weights, probe.centers,
                              2);
  }
  // Close points snap to their center, which introduces a small bias of
  // order eps * average cost; allow 20%.
  EXPECT_NEAR(estimate / trials / true_cost, 1.0, 0.2);
}

TEST(GroupSamplingTest, KMedianMode) {
  Rng rng(7);
  const Matrix points = Blobs(5, 200, 3, rng);
  const Coreset coreset = GroupSamplingCoreset(points, {}, 5, 200, 1, {}, rng);
  DistortionOptions probe;
  probe.k = 5;
  probe.z = 1;
  EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 1.5);
}

TEST(TreeGreedyTest, AssignmentsValidAndCostsConsistent) {
  Rng rng(8);
  const Matrix points = Blobs(6, 100, 3, rng);
  TreeGreedyOptions options;
  const Clustering result = TreeGreedySeeding(points, {}, 6, options, rng);
  ASSERT_GT(result.centers.rows(), 0u);
  ASSERT_EQ(result.assignment.size(), points.rows());
  for (size_t i = 0; i < points.rows(); ++i) {
    ASSERT_LT(result.assignment[i], result.centers.rows());
    EXPECT_NEAR(result.point_costs[i],
                SquaredL2(points.Row(i),
                          result.centers.Row(result.assignment[i])),
                1e-9);
  }
}

TEST(TreeGreedyTest, SeparatedBlobsGetSeparated) {
  Rng rng(9);
  const Matrix points = Blobs(5, 100, 2, rng, /*box=*/5000.0);
  TreeGreedyOptions options;
  const Clustering result = TreeGreedySeeding(points, {}, 5, options, rng);
  // With well-separated blobs the greedy should isolate them: intra-blob
  // cost only, so every point's cost is small relative to separation.
  Rng ref_rng(10);
  const double reference =
      KMeansPlusPlus(points, {}, 5, 2, ref_rng).total_cost;
  EXPECT_LT(result.total_cost, 100.0 * reference + 1.0);
}

TEST(TreeGreedyTest, ClusterCountNearK) {
  Rng rng(11);
  const Matrix points = Blobs(20, 50, 4, rng);
  TreeGreedyOptions options;
  const Clustering result = TreeGreedySeeding(points, {}, 12, options, rng);
  EXPECT_GE(result.centers.rows(), 6u);
  // Bicriteria: at most k plus one node's fan-out.
  EXPECT_LE(result.centers.rows(), 12u + 16u);
}

TEST(TreeGreedyTest, FewerLeavesThanK) {
  Matrix points(10, 2);  // Two distinct locations.
  for (size_t i = 5; i < 10; ++i) points.At(i, 0) = 100.0;
  Rng rng(12);
  TreeGreedyOptions options;
  options.max_depth = 20;
  const Clustering result = TreeGreedySeeding(points, {}, 8, options, rng);
  EXPECT_LE(result.centers.rows(), 8u);
  EXPECT_GE(result.centers.rows(), 2u);
  EXPECT_LT(result.total_cost, 1.0);
}

TEST(TreeGreedyTest, WeightedPointsShiftCenters) {
  Matrix points(2, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 1.0;
  Rng rng(13);
  TreeGreedyOptions options;
  const Clustering result =
      TreeGreedySeeding(points, {3.0, 1.0}, 1, options, rng);
  ASSERT_EQ(result.centers.rows(), 1u);
  EXPECT_NEAR(result.centers.At(0, 0), 0.25, 0.05);
}

TEST(TreeGreedyTest, KMedianModeUsesGeometricMedians) {
  Rng rng(14);
  const Matrix points = Blobs(4, 100, 2, rng);
  TreeGreedyOptions options;
  options.z = 1;
  const Clustering result = TreeGreedySeeding(points, {}, 4, options, rng);
  EXPECT_EQ(result.z, 1);
  for (size_t i = 0; i < points.rows(); ++i) {
    EXPECT_NEAR(result.point_costs[i],
                L2(points.Row(i), result.centers.Row(result.assignment[i])),
                1e-9);
  }
}

TEST(FastCoresetSeederTest, TreeGreedySeederProducesValidCoreset) {
  Rng rng(15);
  const Matrix points = Blobs(8, 300, 8, rng);
  FastCoresetOptions options;
  options.seeder = FastCoresetSeeder::kTreeGreedy;
  const Coreset coreset = FastCoreset(points, {}, 8, 300, 2, options, rng);
  EXPECT_GT(coreset.size(), 0u);
  DistortionOptions probe;
  probe.k = 8;
  EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 1.5);
}

}  // namespace
}  // namespace fastcoreset
