// Robustness suite: degenerate shapes (n = 1, d = 1, k = 1), duplicate-
// heavy inputs, extreme coordinate scales, contract violations (death
// tests on FC_CHECK), and coreset serialization round trips.

#include <cmath>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/fastcoreset.h"
#include "src/clustering/fast_kmeans_plus_plus.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/clustering/lloyd.h"
#include "src/common/fenwick_tree.h"
#include "src/core/fast_coreset.h"
#include "src/data/coreset_io.h"
#include "src/data/generators.h"
#include "src/eval/distortion.h"
#include "src/geometry/quadtree.h"
#include "src/spread/crude_approx.h"
#include "src/spread/reduce_spread.h"
#include "src/streaming/bico.h"

namespace fastcoreset {
namespace {

/// The five-method spectrum, built through the facade.
const std::vector<std::string>& Spectrum() {
  static const std::vector<std::string> methods = {
      "uniform", "lightweight", "welterweight", "sensitivity",
      "fast_coreset"};
  return methods;
}

Coreset FacadeBuild(const std::string& method, const Matrix& points,
                    size_t k, size_t m, Rng& rng) {
  api::CoresetSpec spec;
  spec.method = method;
  spec.k = k;
  spec.m = m;
  return api::Build(spec, points, {}, rng)->coreset;
}

TEST(DegenerateShapeTest, SinglePointSingleDim) {
  Matrix points(1, 1);
  points.At(0, 0) = 3.0;
  Rng rng(1);
  for (size_t i = 0; i < Spectrum().size(); ++i) {
    const std::string& method = Spectrum()[i];
    Rng local(10 + i);
    const Coreset coreset = FacadeBuild(method, points, 1, 1, local);
    ASSERT_GE(coreset.size(), 1u) << method;
    EXPECT_NEAR(coreset.TotalWeight(), 1.0, 1e-9) << method;
  }
  const Clustering clustering = KMeansPlusPlus(points, {}, 1, 2, rng);
  EXPECT_EQ(clustering.centers.rows(), 1u);
  EXPECT_EQ(clustering.total_cost, 0.0);
}

TEST(DegenerateShapeTest, KEqualsOneEverywhere) {
  Rng rng(2);
  Matrix points(100, 3);
  for (double& x : points.data()) x = rng.Uniform(0.0, 10.0);
  for (size_t i = 0; i < Spectrum().size(); ++i) {
    const std::string& method = Spectrum()[i];
    Rng local(20 + i);
    const Coreset coreset = FacadeBuild(method, points, 1, 10, local);
    EXPECT_GT(coreset.size(), 0u) << method;
  }
}

TEST(DegenerateShapeTest, OneDimensionalData) {
  Rng rng(3);
  Matrix points(500, 1);
  for (size_t i = 0; i < 500; ++i) {
    points.At(i, 0) = (i % 5) * 100.0 + rng.NextGaussian();
  }
  FastKMeansPlusPlusOptions options;
  const Clustering result = FastKMeansPlusPlus(points, {}, 5, options, rng);
  EXPECT_EQ(result.centers.rows(), 5u);
  // Five well-separated 1-D groups: near-optimal cost ~ n * sigma^2.
  EXPECT_LT(result.total_cost, 500.0 * 30.0);
}

TEST(DuplicateHeavyTest, AllSamplersSurviveMassiveDuplication) {
  // 1000 copies of each of 4 locations.
  Matrix points(4000, 2);
  for (size_t i = 0; i < 4000; ++i) {
    points.At(i, 0) = static_cast<double>(i % 4) * 50.0;
  }
  for (size_t i = 0; i < Spectrum().size(); ++i) {
    const std::string& method = Spectrum()[i];
    Rng rng(30 + i);
    const Coreset coreset = FacadeBuild(method, points, 4, 100, rng);
    EXPECT_GT(coreset.size(), 0u) << method;
    DistortionOptions probe;
    probe.k = 4;
    EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 1.6)
        << method;
  }
}

TEST(ExtremeScaleTest, HugeCoordinates) {
  Rng rng(4);
  Matrix points(200, 2);
  for (double& x : points.data()) x = 1e15 + rng.Uniform(0.0, 1e12);
  Quadtree tree(points, rng);
  EXPECT_EQ(tree.num_points(), 200u);
  const CrudeApproxResult crude = CrudeApprox(points, 3, rng);
  EXPECT_GT(crude.upper_bound, 0.0);
  EXPECT_TRUE(std::isfinite(crude.upper_bound));
}

TEST(ExtremeScaleTest, TinyCoordinates) {
  Rng rng(5);
  Matrix points(200, 2);
  for (double& x : points.data()) x = 1e-12 * rng.NextDouble();
  FastKMeansPlusPlusOptions options;
  const Clustering result = FastKMeansPlusPlus(points, {}, 4, options, rng);
  EXPECT_GE(result.centers.rows(), 1u);
  EXPECT_TRUE(std::isfinite(result.total_cost));
}

TEST(ExtremeScaleTest, MixedScalesThroughSpreadReduction) {
  // Spread 1e15 ~ 2^50: inside CrudeApprox's documented 2^60 resolution.
  // (Beyond that the within-cluster structure is below the probe floor
  // and CrudeApprox correctly reports the degenerate OPT ~ 0 case, tested
  // separately.)
  Rng rng(6);
  Matrix points(100, 1);
  for (size_t i = 0; i < 50; ++i) points.At(i, 0) = 1e-3 * (i % 7);
  for (size_t i = 50; i < 100; ++i) points.At(i, 0) = 1e12 + 1e-3 * (i % 7);
  const CrudeApproxResult crude = CrudeApprox(points, 2, rng);
  ASSERT_GT(crude.upper_bound, 0.0);
  const SpreadReduction reduction =
      ReduceSpread(points, crude.upper_bound, 80.0, rng);
  EXPECT_EQ(reduction.points.rows(), 100u);
  for (double x : reduction.points.data()) EXPECT_TRUE(std::isfinite(x));
}

TEST(ExtremeScaleTest, BeyondResolutionIsDegenerateNotWrong) {
  // Spread 1e21 > 2^60: the sub-resolution structure is invisible, so
  // CrudeApprox must return the documented degenerate result rather than
  // a bogus bound.
  Rng rng(60);
  Matrix points(100, 1);
  for (size_t i = 0; i < 50; ++i) points.At(i, 0) = 1e-9 * (i % 7);
  for (size_t i = 50; i < 100; ++i) points.At(i, 0) = 1e12 + 1e-9 * (i % 7);
  const CrudeApproxResult crude = CrudeApprox(points, 2, rng);
  EXPECT_EQ(crude.upper_bound, 0.0);
  EXPECT_EQ(crude.split_level, -1);
}

TEST(ContractDeathTest, ChecksFireOnBadArguments) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Rng rng(7);
  Matrix points(10, 2);
  EXPECT_DEATH(
      { (void)KMeansPlusPlus(points, {}, 0, 2, rng); }, "FC_CHECK");
  EXPECT_DEATH(
      { (void)KMeansPlusPlus(points, {}, 2, 3, rng); }, "FC_CHECK");
  std::vector<double> short_weights(3, 1.0);
  EXPECT_DEATH(
      { (void)KMeansPlusPlus(points, short_weights, 2, 2, rng); },
      "FC_CHECK");
  EXPECT_DEATH({ FenwickTree tree(3); (void)tree.Sample(rng); },
               "all-zero FenwickTree");
  Bico bico(2, {.max_features = 4000});
  const std::vector<double> p = {0.0, 0.0};
  EXPECT_DEATH({ bico.Insert(p, 0.0); }, "FC_CHECK");
  // Quadtree depth caps outside [1, 62] (cell coordinates past level 62
  // overflow int64), whichever seeder asks.
  EXPECT_DEATH({ Quadtree tree(points, rng, Quadtree::kMaxDepth + 1); },
               "FC_CHECK");
  EXPECT_DEATH({ Quadtree tree(points, rng, 0); }, "FC_CHECK");
  // An assignment id at or past num_clusters would index past the
  // per-cluster arrays.
  std::vector<size_t> assignment(points.rows(), 0);
  assignment[4] = 3;
  EXPECT_DEATH(
      { (void)CoresetFromAssignment(points, {}, assignment, 3, 5, 2, rng); },
      "FC_CHECK");
}

TEST(CoresetIoTest, RoundTripPreservesPointsAndWeights) {
  Rng rng(8);
  Matrix points(300, 4);
  for (double& x : points.data()) x = rng.Uniform(-100.0, 100.0);
  const Coreset original = FacadeBuild("sensitivity", points, 5, 60, rng);
  const std::string path = "/tmp/fc_coreset_io_test.csv";
  ASSERT_TRUE(SaveCoresetCsv(path, original));
  const auto loaded = LoadCoresetCsv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->points.cols(), 4u);
  for (size_t r = 0; r < original.size(); ++r) {
    EXPECT_NEAR(loaded->weights[r], original.weights[r],
                1e-4 * original.weights[r]);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(loaded->points.At(r, j), original.points.At(r, j), 1e-3);
    }
  }
  std::remove(path.c_str());
}

TEST(CoresetIoTest, LoadedCoresetStillClusters) {
  Rng rng(9);
  const Matrix points = GenerateGaussianMixture(5000, 5, 8, 1.0, rng);
  const Coreset original =
      FacadeBuild("fast_coreset", points, 8, 300, rng);
  const std::string path = "/tmp/fc_coreset_io_test2.csv";
  ASSERT_TRUE(SaveCoresetCsv(path, original));
  const auto loaded = LoadCoresetCsv(path);
  ASSERT_TRUE(loaded.has_value());
  DistortionOptions probe;
  probe.k = 8;
  // CSV rounding costs a little precision; the coreset must stay valid.
  EXPECT_LT(CoresetDistortion(points, {}, *loaded, probe, rng), 1.5);
  std::remove(path.c_str());
}

TEST(CoresetIoTest, RejectsNonPositiveWeights) {
  const std::string path = "/tmp/fc_coreset_io_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("1.0,2.0,0.0\n", f);  // Zero weight.
    fclose(f);
  }
  EXPECT_FALSE(LoadCoresetCsv(path).has_value());
  std::remove(path.c_str());
}

TEST(NoiseRobustnessTest, DistortionStableUnderPerturbation) {
  // The same coreset pipeline on perturbed data should give a similar
  // distortion (no chaotic dependence on coordinates).
  Rng rng(10);
  const Matrix base = GenerateGaussianMixture(8000, 6, 10, 1.0, rng);
  Matrix shifted = base;
  AddUniformNoise(&shifted, 1e-6, rng);
  DistortionOptions probe;
  probe.k = 10;
  Rng rng_a(11), rng_b(11);
  const Coreset coreset_a = FacadeBuild("fast_coreset", base, 10, 400, rng_a);
  const Coreset coreset_b =
      FacadeBuild("fast_coreset", shifted, 10, 400, rng_b);
  Rng probe_a(12), probe_b(12);
  const double d_a = CoresetDistortion(base, {}, coreset_a, probe, probe_a);
  const double d_b =
      CoresetDistortion(shifted, {}, coreset_b, probe, probe_b);
  EXPECT_NEAR(d_a, d_b, 0.2);
}

}  // namespace
}  // namespace fastcoreset
