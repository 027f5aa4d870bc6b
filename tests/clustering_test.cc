// Tests for src/clustering: cost, k-means++, Fast-kmeans++, Lloyd,
// k-median / Weiszfeld.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/clustering/cost.h"
#include "src/clustering/fast_kmeans_plus_plus.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/clustering/kmedian.h"
#include "src/clustering/lloyd.h"
#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/geometry/distance.h"

namespace fastcoreset {
namespace {

/// `blobs` well-separated unit-variance Gaussian blobs in d dims.
Matrix SeparatedBlobs(size_t blobs, size_t per_blob, size_t d, Rng& rng,
                      double separation = 100.0) {
  Matrix points(blobs * per_blob, d);
  std::vector<double> center(d);
  size_t row_idx = 0;
  for (size_t b = 0; b < blobs; ++b) {
    for (double& x : center) x = rng.Uniform(0.0, separation * blobs);
    for (size_t p = 0; p < per_blob; ++p) {
      auto row = points.Row(row_idx++);
      for (size_t j = 0; j < d; ++j) row[j] = center[j] + rng.NextGaussian();
    }
  }
  return points;
}

TEST(CostTest, CostToCentersHandMade) {
  Matrix points(2, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 4.0;
  Matrix centers(1, 1);
  centers.At(0, 0) = 1.0;
  EXPECT_NEAR(CostToCenters(points, {}, centers, 2), 1.0 + 9.0, 1e-12);
  EXPECT_NEAR(CostToCenters(points, {}, centers, 1), 1.0 + 3.0, 1e-12);
  EXPECT_NEAR(CostToCenters(points, {2.0, 1.0}, centers, 2), 2.0 + 9.0,
              1e-12);
}

TEST(CostTest, RefreshAssignmentComputesNearest) {
  Matrix points(3, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 10.0;
  points.At(2, 0) = 11.0;
  Clustering clustering;
  clustering.z = 2;
  clustering.centers = Matrix(2, 1);
  clustering.centers.At(0, 0) = 0.0;
  clustering.centers.At(1, 0) = 10.0;
  RefreshAssignment(points, {}, &clustering);
  EXPECT_EQ(clustering.assignment[0], 0u);
  EXPECT_EQ(clustering.assignment[1], 1u);
  EXPECT_EQ(clustering.assignment[2], 1u);
  EXPECT_NEAR(clustering.total_cost, 1.0, 1e-12);
}

TEST(KMeansPlusPlusTest, RecoverSeparatedBlobs) {
  Rng rng(2);
  const Matrix points = SeparatedBlobs(5, 100, 3, rng);
  const Clustering result = KMeansPlusPlus(points, {}, 5, 2, rng);
  EXPECT_EQ(result.centers.rows(), 5u);
  // With separation 500 >> intra-blob sigma 1, cost should be ~ n * d.
  EXPECT_LT(result.total_cost, 500.0 * 3 * 20.0);
  // Every blob got a center: max point cost stays intra-blob.
  for (double c : result.point_costs) EXPECT_LT(c, 200.0);
}

TEST(KMeansPlusPlusTest, AssignmentIsNearestCenter) {
  Rng rng(3);
  const Matrix points = SeparatedBlobs(3, 50, 2, rng);
  const Clustering result = KMeansPlusPlus(points, {}, 3, 2, rng);
  for (size_t i = 0; i < points.rows(); ++i) {
    const NearestCenter nearest =
        FindNearestCenter(points.Row(i), result.centers);
    EXPECT_NEAR(result.point_costs[i], nearest.sq_dist, 1e-9);
  }
}

TEST(KMeansPlusPlusTest, KGreaterThanNReturnsAllPoints) {
  Rng rng(4);
  Matrix points(4, 2);
  for (double& x : points.data()) x = rng.Uniform(0.0, 1.0);
  const Clustering result = KMeansPlusPlus(points, {}, 10, 2, rng);
  EXPECT_EQ(result.centers.rows(), 4u);
  EXPECT_NEAR(result.total_cost, 0.0, 1e-9);
}

TEST(KMeansPlusPlusTest, AllDuplicatePointsYieldDistinctIndexCenters) {
  // k == n with every point identical: the D^z mass is zero after the
  // first draw, so every remaining center comes from the fallback. It
  // must pick k distinct indices (k centers, cost 0) without spinning.
  Matrix points(3, 2);
  for (double& x : points.data()) x = 7.0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Clustering result = KMeansPlusPlus(points, {}, 3, 2, rng);
    EXPECT_EQ(result.centers.rows(), 3u);
    EXPECT_NEAR(result.total_cost, 0.0, 1e-12);
  }
}

TEST(KMeansPlusPlusTest, ZeroMassFallbackDoesNotRedrawChosenCenter) {
  // Regression: {a, a, a, b} with k = 3. After {a, b} are chosen the
  // remaining mass is zero and the third center comes from the fallback,
  // which used to draw over *all* indices — re-picking b's index with
  // probability 1/4 and emitting the unique point b as a duplicate
  // center. Excluding chosen indices, b can appear exactly once.
  Matrix points(4, 2);
  points.At(3, 0) = 5.0;
  points.At(3, 1) = 5.0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const Clustering result = KMeansPlusPlus(points, {}, 3, 2, rng);
    ASSERT_EQ(result.centers.rows(), 3u);
    int b_rows = 0;
    for (size_t c = 0; c < 3; ++c) {
      if (result.centers.At(c, 0) == 5.0) ++b_rows;
    }
    EXPECT_EQ(b_rows, 1) << "seed " << seed;
    EXPECT_NEAR(result.total_cost, 0.0, 1e-12);
  }
}

TEST(KMeansPlusPlusTest, WeightsBiasSeeding) {
  // Two distant locations; one has overwhelming weight. The first center
  // lands there almost surely.
  Matrix points(2, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 100.0;
  int first_heavy = 0;
  for (int t = 0; t < 200; ++t) {
    Rng rng(500 + t);
    const Clustering result =
        KMeansPlusPlus(points, {1e6, 1.0}, 1, 2, rng);
    if (std::abs(result.centers.At(0, 0)) < 1.0) ++first_heavy;
  }
  EXPECT_GT(first_heavy, 195);
}

TEST(KMeansPlusPlusTest, KMedianVariantRuns) {
  Rng rng(5);
  const Matrix points = SeparatedBlobs(4, 50, 2, rng);
  const Clustering result = KMeansPlusPlus(points, {}, 4, 1, rng);
  EXPECT_EQ(result.z, 1);
  EXPECT_EQ(result.centers.rows(), 4u);
  for (double c : result.point_costs) EXPECT_LT(c, 50.0);  // dist, not sq.
}

// D^2 seeding is an O(log k) approximation in expectation; check a crude
// constant-factor version against a planted optimal on easy data.
TEST(KMeansPlusPlusTest, CostWithinLogFactorOfPlanted) {
  Rng rng(6);
  const size_t blobs = 8, per = 80, d = 4;
  const Matrix points = SeparatedBlobs(blobs, per, d, rng);
  // Planted solution: blob means.
  Matrix planted(blobs, d);
  for (size_t b = 0; b < blobs; ++b) {
    std::vector<size_t> rows(per);
    for (size_t p = 0; p < per; ++p) rows[p] = b * per + p;
    const Matrix blob = points.SelectRows(rows);
    const auto mean = blob.ColumnMeans();
    for (size_t j = 0; j < d; ++j) planted.At(b, j) = mean[j];
  }
  const double planted_cost = CostToCenters(points, {}, planted, 2);

  double total = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    Rng trial_rng(700 + t);
    total += KMeansPlusPlus(points, {}, blobs, 2, trial_rng).total_cost;
  }
  EXPECT_LT(total / trials, 30.0 * planted_cost);
}

/// k-means++ without either skip: every round computes every point's
/// distance to the new center, in index order. Draws, Fenwick updates and
/// the cost sum follow KMeansPlusPlus step for step, so the two must agree
/// bit for bit.
Clustering SkipFreeKMeansPlusPlus(const Matrix& points,
                                  const std::vector<double>& weights,
                                  size_t k, int z, Rng& rng) {
  const size_t n = points.rows();
  k = std::min(k, n);
  Clustering result;
  result.z = z;
  result.centers = Matrix(k, points.cols());
  result.assignment.assign(n, 0);
  const auto mass = [&](size_t i, double sq) {
    return WeightAt(weights, i) * (z == 2 ? sq : std::sqrt(sq));
  };
  std::vector<double> min_sq(n);
  std::vector<uint8_t> chosen(n, 0);
  const size_t first =
      weights.empty() ? rng.NextIndex(n) : rng.SampleDiscrete(weights);
  chosen[first] = 1;
  result.centers.CopyRowFrom(points, first, 0);
  std::vector<double> initial(n);
  for (size_t i = 0; i < n; ++i) {
    min_sq[i] = SquaredL2(points.Row(i), points.Row(first));
    initial[i] = mass(i, min_sq[i]);
  }
  FenwickTree masses(initial);
  for (size_t c = 1; c < k; ++c) {
    size_t next = n;
    if (masses.Total() > 0.0) {
      const size_t drawn = masses.Sample(rng);
      if (masses.Get(drawn) > 0.0) next = drawn;
    }
    if (next == n) {
      std::vector<size_t> unchosen;
      double unchosen_weight = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (!chosen[i]) {
          unchosen.push_back(i);
          unchosen_weight += WeightAt(weights, i);
        }
      }
      if (unchosen_weight > 0.0 && !weights.empty()) {
        std::vector<double> sub;
        for (size_t i : unchosen) sub.push_back(weights[i]);
        next = unchosen[rng.SampleDiscrete(sub, unchosen_weight)];
      } else {
        next = unchosen[rng.NextIndex(unchosen.size())];
      }
    }
    chosen[next] = 1;
    result.centers.CopyRowFrom(points, next, c);
    for (size_t i = 0; i < n; ++i) {
      const double sq = SquaredL2(points.Row(i), result.centers.Row(c));
      if (sq < min_sq[i]) {
        min_sq[i] = sq;
        result.assignment[i] = c;
        masses.Set(i, mass(i, sq));
      }
    }
  }
  result.point_costs.resize(n);
  result.total_cost = ParallelReduce(n, [&](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      result.point_costs[i] = z == 2 ? min_sq[i] : std::sqrt(min_sq[i]);
      partial += WeightAt(weights, i) * result.point_costs[i];
    }
    return partial;
  });
  return result;
}

/// Runs KMeansPlusPlus and the skip-free seeder from the same seed at 1
/// and 4 threads and expects the same centers, assignment, costs and Rng
/// state, bit for bit (NaN matching NaN). Returns the rows the rounds
/// tested.
uint64_t ExpectMatchesSkipFree(const Matrix& points,
                               const std::vector<double>& weights, size_t k,
                               int z, uint64_t seed) {
  const auto bits = [](const std::vector<double>& values) {
    std::vector<uint64_t> out(values.size());
    std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
    return out;
  };
  Rng reference_rng(seed);
  const Clustering reference =
      SkipFreeKMeansPlusPlus(points, weights, k, z, reference_rng);
  const uint64_t reference_next = reference_rng.NextU64();
  uint64_t rows_tested = 0;
  for (size_t threads : {1, 4}) {
    SetNumThreads(threads);
    Rng rng(seed);
    WorkCounters work;
    const Clustering result = KMeansPlusPlus(points, weights, k, z, rng, &work);
    ResetNumThreads();
    EXPECT_EQ(bits(result.centers.data()), bits(reference.centers.data()))
        << "threads " << threads;
    EXPECT_EQ(result.assignment, reference.assignment) << "threads " << threads;
    EXPECT_EQ(bits(result.point_costs), bits(reference.point_costs))
        << "threads " << threads;
    EXPECT_EQ(bits({result.total_cost}), bits({reference.total_cost}))
        << "threads " << threads;
    EXPECT_EQ(rng.NextU64(), reference_next) << "threads " << threads;
    if (threads > 1) {
      EXPECT_EQ(work.kmeanspp_rows_tested, rows_tested);
    }
    rows_tested = work.kmeanspp_rows_tested;
  }
  return rows_tested;
}

TEST(KMeansPlusPlusTest, MatchesSkipFreeSeedingOnSeparatedBlobs) {
  // 2048-row blobs fill whole 512-row blocks, so the block test rules
  // out most rows; n = 7 · 2048 + 300 leaves a partial last block.
  Rng rng(31);
  Matrix points = SeparatedBlobs(7, 2048, 4, rng);
  const size_t n = points.rows() + 300;
  {
    Matrix padded(n, 4);
    for (size_t i = 0; i < n; ++i) {
      padded.CopyRowFrom(points, i % points.rows(), i);
    }
    points = std::move(padded);
  }
  const size_t k = 60;
  const uint64_t rows_tested = ExpectMatchesSkipFree(points, {}, k, 2, 32);
  EXPECT_LE(rows_tested, n * (k - 1) / 4);

  std::vector<double> weights(n);
  for (double& w : weights) w = rng.NextDouble() < 0.1 ? 0.0 : rng.NextDouble();
  ExpectMatchesSkipFree(points, weights, k, 2, 33);
  ExpectMatchesSkipFree(points, weights, k, 1, 34);
}

/// The first n rows of 512-row blobs: each full block holds one blob.
Matrix BlockAlignedBlobs(size_t n, size_t d, Rng& rng) {
  const Matrix blobs = SeparatedBlobs((n + 511) / 512, 512, d, rng);
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return blobs.SelectRows(rows);
}

TEST(KMeansPlusPlusTest, MatchesSkipFreeSeedingOnSmallInputs) {
  Rng rng(35);
  for (size_t n : {1, 2, 300, 511, 512, 513, 1500}) {
    const Matrix points = BlockAlignedBlobs(n, 3, rng);
    ExpectMatchesSkipFree(points, {}, 40, 2, 36 + n);
    ExpectMatchesSkipFree(points, {}, 40, 1, 37 + n);
  }
}

TEST(KMeansPlusPlusTest, MatchesSkipFreeSeedingOnDuplicates) {
  // 1500 rows on 3 distinct points, one per block, and k above the
  // distinct count: the rounds past 3 draw from the zero-mass fallback.
  Rng rng(38);
  const Matrix distinct = SeparatedBlobs(3, 1, 5, rng);
  std::vector<size_t> rows(1500);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i / 512;
  const Matrix points = distinct.SelectRows(rows);
  ExpectMatchesSkipFree(points, {}, 12, 2, 39);
  ExpectMatchesSkipFree(points, {}, 12, 1, 40);
}

TEST(KMeansPlusPlusTest, MatchesSkipFreeSeedingAtExtremeScales) {
  // ×1e153: distances within a blob stay finite, those across blobs
  // overflow. ×1e150: only row 512, the second block's anchor, set to
  // 1e300, overflows against everything. The small scales put squares
  // below kMinSkipSq (1e-141) and into the subnormals (1e-160).
  Rng rng(41);
  const Matrix blobs = BlockAlignedBlobs(2300, 3, rng);
  for (double scale : {1e153, 1e150, 1e-141, 1e-160}) {
    Matrix points = blobs;
    for (double& x : points.data()) x *= scale;
    if (scale > 1.0) {
      for (size_t j = 0; j < points.cols(); ++j) points.At(512, j) = 1e300;
    }
    ExpectMatchesSkipFree(points, {}, 30, 2, 42);
    ExpectMatchesSkipFree(points, {}, 30, 1, 43);
  }
}

TEST(FastKMeansPlusPlusTest, ProducesValidAssignments) {
  Rng rng(7);
  const Matrix points = SeparatedBlobs(5, 100, 3, rng);
  FastKMeansPlusPlusOptions options;
  const Clustering result = FastKMeansPlusPlus(points, {}, 5, options, rng);
  EXPECT_EQ(result.centers.rows(), 5u);
  ASSERT_EQ(result.assignment.size(), points.rows());
  for (size_t i = 0; i < points.rows(); ++i) {
    ASSERT_LT(result.assignment[i], result.centers.rows());
    EXPECT_NEAR(result.point_costs[i],
                SquaredL2(points.Row(i),
                          result.centers.Row(result.assignment[i])),
                1e-9);
  }
}

TEST(FastKMeansPlusPlusTest, CostComparableToStandardSeeding) {
  Rng rng(8);
  const Matrix points = SeparatedBlobs(10, 100, 3, rng);
  double fast_total = 0.0, std_total = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    Rng fast_rng(800 + t), std_rng(900 + t);
    FastKMeansPlusPlusOptions options;
    fast_total +=
        FastKMeansPlusPlus(points, {}, 10, options, fast_rng).total_cost;
    std_total += KMeansPlusPlus(points, {}, 10, 2, std_rng).total_cost;
  }
  // Tree-metric seeding pays an O(d^z log k) style factor after dimension
  // reduction, i.e. roughly d * log Δ * log k here (d = 3, log Δ ~ 20,
  // log k ~ 3); we cap at a generous constant times that envelope.
  EXPECT_LT(fast_total, 500.0 * std_total + 1e-9);
}

TEST(FastKMeansPlusPlusTest, FewerDistinctPointsThanK) {
  Matrix points(6, 2);  // Three distinct locations, duplicated.
  for (int i = 0; i < 3; ++i) {
    points.At(2 * i, 0) = 10.0 * i;
    points.At(2 * i + 1, 0) = 10.0 * i;
  }
  Rng rng(9);
  FastKMeansPlusPlusOptions options;
  options.max_depth = 20;  // Duplicates share leaves at max depth.
  const Clustering result = FastKMeansPlusPlus(points, {}, 6, options, rng);
  EXPECT_LE(result.centers.rows(), 6u);
  EXPECT_GE(result.centers.rows(), 3u);
  EXPECT_LT(result.total_cost, 1e-6);
}

TEST(FastKMeansPlusPlusTest, DuplicatedPointsNeverYieldDuplicateCenters) {
  // Regression companion to the FenwickTree zero-mass fix: with heavy
  // exact duplication, a covered point sampled through float drift used
  // to be accepted as a center, silently duplicating an existing one
  // while uncovered points remained. Three distinct locations, each
  // duplicated five-fold, k = 3: the seeder must return three *distinct*
  // centers every time.
  Matrix points(15, 2);
  for (size_t g = 0; g < 3; ++g) {
    for (size_t r = 0; r < 5; ++r) {
      points.At(g * 5 + r, 0) = static_cast<double>(g) * 10.0;
      points.At(g * 5 + r, 1) = 1.0;
    }
  }
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const Clustering result =
        FastKMeansPlusPlus(points, {}, 3, FastKMeansPlusPlusOptions{}, rng);
    ASSERT_EQ(result.centers.rows(), 3u);
    std::set<double> xs;
    for (size_t c = 0; c < 3; ++c) xs.insert(result.centers.At(c, 0));
    EXPECT_EQ(xs.size(), 3u) << "seed " << seed;
    EXPECT_NEAR(result.total_cost, 0.0, 1e-12);
  }
}

TEST(FastKMeansPlusPlusTest, KMedianModeUsesPlainDistances) {
  Rng rng(10);
  const Matrix points = SeparatedBlobs(4, 60, 2, rng);
  FastKMeansPlusPlusOptions options;
  options.z = 1;
  const Clustering result = FastKMeansPlusPlus(points, {}, 4, options, rng);
  EXPECT_EQ(result.z, 1);
  for (size_t i = 0; i < points.rows(); ++i) {
    EXPECT_NEAR(result.point_costs[i],
                L2(points.Row(i), result.centers.Row(result.assignment[i])),
                1e-9);
  }
}

TEST(FastKMeansPlusPlusTest, RejectionSamplingOffStillWorks) {
  Rng rng(11);
  const Matrix points = SeparatedBlobs(6, 50, 2, rng);
  FastKMeansPlusPlusOptions options;
  options.rejection_sampling = false;
  const Clustering result = FastKMeansPlusPlus(points, {}, 6, options, rng);
  EXPECT_EQ(result.centers.rows(), 6u);
  EXPECT_GT(result.total_cost, 0.0);
}

TEST(FastKMeansPlusPlusTest, WeightedSeedingFavoursHeavyRegions) {
  // 100 light points at x=0, 1 heavy point at x=1000 with weight 1e6.
  Matrix points(101, 1);
  std::vector<double> weights(101, 1.0);
  points.At(100, 0) = 1000.0;
  weights[100] = 1e6;
  int heavy_first = 0;
  for (int t = 0; t < 50; ++t) {
    Rng rng(1100 + t);
    FastKMeansPlusPlusOptions options;
    const Clustering result =
        FastKMeansPlusPlus(points, weights, 1, options, rng);
    if (result.centers.At(0, 0) > 500.0) ++heavy_first;
  }
  EXPECT_GT(heavy_first, 45);
}

TEST(LloydTest, CostMonotoneNonIncreasing) {
  Rng rng(12);
  const Matrix points = SeparatedBlobs(4, 100, 3, rng);
  const Clustering seed = KMeansPlusPlus(points, {}, 4, 2, rng);
  LloydOptions options;
  options.max_iters = 10;
  const Clustering refined = LloydKMeans(points, {}, seed.centers, options);
  EXPECT_LE(refined.total_cost, seed.total_cost + 1e-9);
}

TEST(LloydTest, ConvergesToBlobMeansOnEasyData) {
  Rng rng(13);
  const Matrix points = SeparatedBlobs(3, 200, 2, rng);
  const Clustering seed = KMeansPlusPlus(points, {}, 3, 2, rng);
  const Clustering refined = LloydKMeans(points, {}, seed.centers);
  // Optimal cost ~ n * d * sigma^2 = 600 * 2; allow generous slack.
  EXPECT_LT(refined.total_cost, 3.0 * 600.0 * 2.0);
}

TEST(LloydTest, WeightedCentroids) {
  // Two points, weight 3 at x=0 and weight 1 at x=4: 1-means center at 1.
  Matrix points(2, 1);
  points.At(1, 0) = 4.0;
  Matrix init(1, 1);
  init.At(0, 0) = 2.0;
  const Clustering result = LloydKMeans(points, {3.0, 1.0}, init);
  EXPECT_NEAR(result.centers.At(0, 0), 1.0, 1e-9);
}

TEST(LloydTest, EmptyClusterReseeded) {
  Rng rng(14);
  const Matrix points = SeparatedBlobs(2, 100, 2, rng);
  // Three centers, two stacked far away: one will start empty.
  Matrix init(3, 2);
  for (size_t j = 0; j < 2; ++j) {
    init.At(0, j) = points.At(0, j);
    init.At(1, j) = 1e6;
    init.At(2, j) = 1e6;
  }
  const Clustering result = LloydKMeans(points, {}, init);
  // All centers ended up used or harmless; cost must be small since k=3
  // suffices for 2 blobs.
  EXPECT_LT(result.total_cost, 100.0 * 2.0 * 2.0 * 10.0);
}

TEST(WeiszfeldTest, MedianOfSymmetricPointsIsCenter) {
  Matrix points(4, 2);
  points.At(0, 0) = 1.0;
  points.At(1, 0) = -1.0;
  points.At(2, 1) = 1.0;
  points.At(3, 1) = -1.0;
  const auto median = GeometricMedian(points, {}, {0, 1, 2, 3});
  EXPECT_NEAR(median[0], 0.0, 1e-5);
  EXPECT_NEAR(median[1], 0.0, 1e-5);
}

TEST(WeiszfeldTest, MedianRobustToOutlierUnlikeMean) {
  // 9 points at 0, 1 point at 100: median stays near 0, mean at 10.
  Matrix points(10, 1);
  points.At(9, 0) = 100.0;
  std::vector<size_t> all(10);
  for (size_t i = 0; i < 10; ++i) all[i] = i;
  const auto median = GeometricMedian(points, {}, all, /*max_iters=*/100);
  EXPECT_LT(std::abs(median[0]), 1.0);
}

TEST(WeiszfeldTest, WeightsShiftTheMedian) {
  Matrix points(2, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 10.0;
  // Heavier weight on the right point pulls the median (for two points the
  // geometric median sits at the heavier point).
  const auto median = GeometricMedian(points, {1.0, 5.0}, {0, 1}, 200);
  EXPECT_GT(median[0], 8.0);
}

TEST(KMedianTest, CostMonotoneAndAssignmentsValid) {
  Rng rng(15);
  const Matrix points = SeparatedBlobs(4, 80, 2, rng);
  const Clustering seed = KMeansPlusPlus(points, {}, 4, 1, rng);
  const Clustering refined = LloydKMedian(points, {}, seed.centers);
  EXPECT_EQ(refined.z, 1);
  EXPECT_LE(refined.total_cost, seed.total_cost + 1e-9);
  for (size_t a : refined.assignment) EXPECT_LT(a, 4u);
}

}  // namespace
}  // namespace fastcoreset
