// Tests for the second wave of extensions: parallel kernels, k-means||,
// and AFK-MC^2.

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/clustering/afkmc2.h"
#include "src/clustering/cost.h"
#include "src/clustering/kmeans_parallel.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/common/parallel.h"
#include "src/data/generators.h"
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

class ThreadGuard {
 public:
  explicit ThreadGuard(size_t n) { SetNumThreads(n); }
  ~ThreadGuard() { SetNumThreads(1); }
};

TEST(ParallelTest, ForCoversRangeExactlyOnce) {
  ThreadGuard guard(4);
  const size_t n = 100000;
  std::vector<int> hits(n, 0);
  ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < n; i += 997) EXPECT_EQ(hits[i], 1);
}

TEST(ParallelTest, ReduceMatchesSerialSum) {
  ThreadGuard guard(8);
  const size_t n = 50000;
  std::vector<double> xs(n);
  Rng rng(1);
  for (double& x : xs) x = rng.Uniform(0.0, 1.0);
  const double parallel = ParallelReduce(n, [&](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) partial += xs[i];
    return partial;
  });
  double serial = 0.0;
  for (double x : xs) serial += x;
  EXPECT_NEAR(parallel, serial, 1e-7 * serial);
}

TEST(ParallelTest, CostToCentersAgreesAcrossThreadCounts) {
  Rng rng(2);
  const Matrix points = Blobs(5, 400, 8, rng);
  const Matrix centers = Blobs(5, 1, 8, rng);
  SetNumThreads(1);
  const double serial = CostToCenters(points, {}, centers, 2);
  SetNumThreads(6);
  const double parallel = CostToCenters(points, {}, centers, 2);
  SetNumThreads(1);
  EXPECT_NEAR(parallel, serial, 1e-9 * serial);
}

TEST(ParallelTest, ZeroThreadsMeansHardwareConcurrency) {
  SetNumThreads(0);
  EXPECT_GE(GetNumThreads(), 1u);
  SetNumThreads(1);
}

TEST(KMeansParallelTest, RecoversSeparatedBlobs) {
  Rng rng(3);
  const Matrix points = Blobs(8, 150, 4, rng);
  KMeansParallelOptions options;
  const Clustering result = KMeansParallel(points, {}, 8, options, rng);
  EXPECT_EQ(result.centers.rows(), 8u);
  Rng ref_rng(4);
  const double reference = KMeansPlusPlus(points, {}, 8, 2, ref_rng).total_cost;
  EXPECT_LT(result.total_cost, 5.0 * reference);
}

TEST(KMeansParallelTest, AssignmentsAreNearest) {
  Rng rng(5);
  const Matrix points = Blobs(4, 100, 3, rng);
  KMeansParallelOptions options;
  const Clustering result = KMeansParallel(points, {}, 4, options, rng);
  for (size_t i = 0; i < points.rows(); ++i) {
    const NearestCenter nearest =
        FindNearestCenter(points.Row(i), result.centers);
    EXPECT_NEAR(result.point_costs[i], nearest.sq_dist, 1e-9);
  }
}

TEST(KMeansParallelTest, KMedianMode) {
  Rng rng(6);
  const Matrix points = Blobs(4, 100, 3, rng);
  KMeansParallelOptions options;
  options.z = 1;
  const Clustering result = KMeansParallel(points, {}, 4, options, rng);
  EXPECT_EQ(result.z, 1);
  EXPECT_GT(result.total_cost, 0.0);
}

TEST(Afkmc2Test, RecoversSeparatedBlobs) {
  Rng rng(7);
  const Matrix points = Blobs(6, 200, 4, rng);
  Afkmc2Options options;
  const Clustering result = Afkmc2(points, {}, 6, options, rng);
  EXPECT_EQ(result.centers.rows(), 6u);
  Rng ref_rng(8);
  const double reference = KMeansPlusPlus(points, {}, 6, 2, ref_rng).total_cost;
  EXPECT_LT(result.total_cost, 10.0 * reference);
}

TEST(Afkmc2Test, LongerChainsHelpOnAverage) {
  Rng data_rng(9);
  const Matrix points = Blobs(10, 100, 4, data_rng);
  auto mean_cost = [&](size_t chain) {
    double total = 0.0;
    for (int t = 0; t < 10; ++t) {
      Rng rng(100 + t);
      Afkmc2Options options;
      options.chain_length = chain;
      total += Afkmc2(points, {}, 10, options, rng).total_cost;
    }
    return total / 10.0;
  };
  // Chain length 1 is nearly proposal-only; 500 approximates true D^2.
  EXPECT_LT(mean_cost(500), 1.5 * mean_cost(1) + 1e-9);
}

TEST(Afkmc2Test, DuplicateHeavyInputDoesNotLoop) {
  Matrix points(100, 2);  // All identical.
  Rng rng(10);
  Afkmc2Options options;
  const Clustering result = Afkmc2(points, {}, 5, options, rng);
  EXPECT_GE(result.centers.rows(), 1u);
  EXPECT_NEAR(result.total_cost, 0.0, 1e-9);
}

}  // namespace
}  // namespace fastcoreset
