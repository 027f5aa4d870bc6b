// Tests for TreeAssign and the iterative Fast-Coreset (Section 8.4).

#include <vector>

#include <gtest/gtest.h>

#include "src/clustering/cost.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/clustering/tree_assign.h"
#include "src/core/iterative_coreset.h"
#include "src/data/generators.h"
#include "src/eval/distortion.h"
#include "src/geometry/distance.h"
#include "src/service/fingerprint.h"

namespace fastcoreset {
namespace {

Matrix Blobs(size_t blobs, size_t per_blob, size_t d, Rng& rng,
             double box = 2000.0) {
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

TEST(TreeAssignTest, AssignmentsValidAndCostsConsistent) {
  Rng rng(1);
  const Matrix points = Blobs(5, 100, 3, rng);
  Rng center_rng(2);
  const Matrix centers = KMeansPlusPlus(points, {}, 5, 2, center_rng).centers;
  const Clustering result = TreeAssign(points, {}, centers, 2, rng);
  ASSERT_EQ(result.assignment.size(), points.rows());
  for (size_t i = 0; i < points.rows(); ++i) {
    ASSERT_LT(result.assignment[i], centers.rows());
    EXPECT_NEAR(result.point_costs[i],
                SquaredL2(points.Row(i), centers.Row(result.assignment[i])),
                1e-9);
  }
}

TEST(TreeAssignTest, CostWithinTreeDistortionOfExact) {
  Rng rng(3);
  const Matrix points = Blobs(6, 150, 3, rng);
  Rng center_rng(4);
  const Matrix centers = KMeansPlusPlus(points, {}, 6, 2, center_rng).centers;
  const Clustering approx = TreeAssign(points, {}, centers, 2, rng);
  const double exact = CostToCenters(points, {}, centers, 2);
  // Exact is a lower bound; relative slack because the batched cost kernel
  // evaluates distances in the norm-cached form, which rounds differently
  // in the last ulps than the per-point form TreeAssign reports.
  EXPECT_GE(approx.total_cost, exact * (1.0 - 1e-9));
  // d = 3, modest spread: the tree assignment should stay within a
  // moderate polylog factor.
  EXPECT_LT(approx.total_cost, 500.0 * exact + 1e-9);
}

TEST(TreeAssignTest, WellSeparatedBlobsAssignedToOwnCenters) {
  // Blobs far apart with one center each: the tree must route every point
  // to its own blob's center (any cross-blob assignment would show up as
  // a huge cost).
  Rng rng(5);
  const size_t blobs = 4, per = 100;
  const Matrix points = Blobs(blobs, per, 2, rng, /*box=*/1e6);
  Matrix centers(blobs, 2);
  for (size_t b = 0; b < blobs; ++b) {
    std::vector<size_t> rows(per);
    for (size_t p = 0; p < per; ++p) rows[p] = b * per + p;
    const auto mean = points.SelectRows(rows).ColumnMeans();
    centers.At(b, 0) = mean[0];
    centers.At(b, 1) = mean[1];
  }
  const Clustering result = TreeAssign(points, {}, centers, 2, rng);
  // Every point within intra-blob distance of its assigned center.
  for (size_t i = 0; i < points.rows(); ++i) {
    EXPECT_LT(result.point_costs[i], 100.0);
  }
}

TEST(TreeAssignTest, SingleCenterTrivial) {
  Rng rng(6);
  Matrix points(50, 2);
  for (double& x : points.data()) x = rng.Uniform(0.0, 10.0);
  Matrix center(1, 2);
  const Clustering result = TreeAssign(points, {}, center, 1, rng);
  for (size_t a : result.assignment) EXPECT_EQ(a, 0u);
}

TEST(IterativeCoresetTest, OneRoundEqualsPlainFastCoreset) {
  Rng data_rng(7);
  const Matrix points = GenerateGaussianMixture(8000, 8, 10, 1.0, data_rng);
  IterativeCoresetOptions options;
  options.base.k = 10;
  options.base.m = 400;
  options.rounds = 1;
  Rng rng_a(50), rng_b(50);
  const Coreset iterative = IterativeFastCoreset(points, {}, options, rng_a);
  const Coreset plain = FastCoreset(points, {}, options.base, rng_b);
  ASSERT_EQ(iterative.size(), plain.size());
  for (size_t r = 0; r < plain.size(); ++r) {
    EXPECT_EQ(iterative.indices[r], plain.indices[r]);
  }
}

TEST(IterativeCoresetTest, MoreRoundsKeepLowDistortion) {
  Rng data_rng(8);
  const Matrix points = GenerateGaussianMixture(12000, 8, 15, 2.0, data_rng);
  IterativeCoresetOptions options;
  options.base.k = 15;
  options.base.m = 600;
  options.rounds = 3;
  Rng rng(60);
  const Coreset coreset = IterativeFastCoreset(points, {}, options, rng);
  EXPECT_GT(coreset.size(), 0u);
  EXPECT_NEAR(coreset.TotalWeight() / 12000.0, 1.0, 0.2);
  DistortionOptions probe;
  probe.k = 15;
  EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 1.5);
}

TEST(IterativeCoresetTest, KMedianRounds) {
  Rng data_rng(9);
  const Matrix points = GenerateGaussianMixture(6000, 5, 8, 1.0, data_rng);
  IterativeCoresetOptions options;
  options.base.k = 8;
  options.base.m = 300;
  options.base.z = 1;
  options.rounds = 2;
  Rng rng(70);
  const Coreset coreset = IterativeFastCoreset(points, {}, options, rng);
  DistortionOptions probe;
  probe.k = 8;
  probe.z = 1;
  EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 1.5);
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

}  // namespace
}  // namespace fastcoreset
