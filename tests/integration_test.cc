// End-to-end integration tests across modules: full pipelines, coreset
// composability, determinism, high-dimensional (JL) paths, the full-depth
// quadtree mode and the strict multi-probe distortion metric.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/fastcoreset.h"
#include "src/clustering/cost.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/clustering/lloyd.h"
#include "src/core/fast_coreset.h"
#include "src/data/generators.h"
#include "src/data/real_like.h"
#include "src/eval/distortion.h"
#include "src/geometry/quadtree.h"
#include "src/spread/crude_approx.h"
#include "src/streaming/merge_reduce.h"

namespace fastcoreset {
namespace {

TEST(PipelineTest, CompressClusterMatchesDirectClustering) {
  Rng rng(1);
  const Matrix points = GenerateGaussianMixture(30000, 15, 20, 1.5, rng);
  FastCoresetOptions options;
  options.k = 20;
  options.m = 800;
  const Coreset coreset = FastCoreset(points, {}, options, rng);

  Rng solve_rng(2);
  const Clustering on_coreset = LloydKMeans(
      coreset.points, coreset.weights,
      KMeansPlusPlus(coreset.points, coreset.weights, 20, 2, solve_rng)
          .centers);
  const double via_coreset =
      CostToCenters(points, {}, on_coreset.centers, 2);

  Rng direct_rng(3);
  const Clustering direct = LloydKMeans(
      points, {}, KMeansPlusPlus(points, {}, 20, 2, direct_rng).centers);

  EXPECT_LT(via_coreset, 1.3 * direct.total_cost);
}

TEST(PipelineTest, HighDimensionalJlPath) {
  // MNIST-like: 784 dims force the JL branch inside FastCoreset.
  Rng rng(4);
  const Dataset mnist = MakeMnistLike(4000, rng);
  FastCoresetOptions options;
  options.k = 10;
  options.m = 400;
  ASSERT_TRUE(options.use_jl);
  const Coreset coreset = FastCoreset(mnist.points, {}, options, rng);
  DistortionOptions probe;
  probe.k = 10;
  EXPECT_LT(CoresetDistortion(mnist.points, {}, coreset, probe, rng), 1.5);
}

// The coreset property composes: the union of coresets of two halves is a
// coreset of the whole.
TEST(PipelineTest, CoresetUnionIsCoresetOfUnion) {
  Rng rng(5);
  const Matrix points = GenerateGaussianMixture(20000, 10, 15, 1.0, rng);
  std::vector<size_t> first_half, second_half;
  for (size_t i = 0; i < points.rows(); ++i) {
    (i % 2 == 0 ? first_half : second_half).push_back(i);
  }
  const Matrix a = points.SelectRows(first_half);
  const Matrix b = points.SelectRows(second_half);

  Coreset coreset_union;
  coreset_union.points = Matrix(0, points.cols());
  for (const Matrix* part : {&a, &b}) {
    FastCoresetOptions options;
    options.k = 15;
    options.m = 400;
    const Coreset local = FastCoreset(*part, {}, options, rng);
    coreset_union.points.AppendRows(local.points);
    coreset_union.weights.insert(coreset_union.weights.end(),
                                 local.weights.begin(), local.weights.end());
    coreset_union.indices.insert(coreset_union.indices.end(),
                                 local.indices.size(),
                                 Coreset::kSyntheticIndex);
  }

  DistortionOptions probe;
  probe.k = 15;
  EXPECT_LT(CoresetDistortion(points, {}, coreset_union, probe, rng), 1.3);
}

TEST(DeterminismTest, SameSeedSameCoreset) {
  Rng data_rng(6);
  const Matrix points = GenerateGaussianMixture(5000, 8, 10, 1.0, data_rng);
  FastCoresetOptions options;
  options.k = 10;
  options.m = 200;
  Rng rng_a(99), rng_b(99);
  const Coreset a = FastCoreset(points, {}, options, rng_a);
  const Coreset b = FastCoreset(points, {}, options, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a.indices[r], b.indices[r]);
    EXPECT_EQ(a.weights[r], b.weights[r]);
  }
}

TEST(DeterminismTest, StreamingPipelineDeterministic) {
  Rng data_rng(7);
  const Matrix points = GenerateGaussianMixture(6000, 5, 8, 0.5, data_rng);
  auto run = [&](uint64_t seed) {
    Rng rng(seed);
    api::CoresetSpec spec;
    spec.method = "sensitivity";
    spec.k = 8;
    return StreamingCompress(points, {}, api::MakeBuilder(spec).value(),
                             1024, 200, rng);
  };
  const Coreset a = run(5), b = run(5), c = run(6);
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) EXPECT_EQ(a.indices[r], b.indices[r]);
  // Different seed should (generically) give a different sample.
  bool differs = a.size() != c.size();
  for (size_t r = 0; !differs && r < a.size(); ++r) {
    differs = a.indices[r] != c.indices[r];
  }
  EXPECT_TRUE(differs);
}

TEST(FullDepthQuadtreeTest, AllLeavesAtMaxDepth) {
  Rng rng(8);
  Matrix points(200, 2);
  for (double& x : points.data()) x = rng.Uniform(0.0, 10.0);
  Quadtree tree(points, rng, QuadtreeOptions{12, /*full_depth=*/true});
  for (size_t i = 0; i < points.rows(); ++i) {
    EXPECT_EQ(tree.level(tree.LeafOfPoint(i)), 12);
  }
  // Full-depth trees are strictly larger than adaptive ones.
  Rng rng2(8);
  Quadtree adaptive(points, rng2, QuadtreeOptions{12, false});
  EXPECT_GT(tree.num_nodes(), adaptive.num_nodes());
}

TEST(MultiProbeDistortionTest, AtLeastSingleProbeDistortion) {
  Rng rng(9);
  const Matrix points = GenerateGaussianMixture(8000, 8, 10, 1.0, rng);
  api::CoresetSpec spec;
  spec.method = "fast_coreset";
  spec.k = 10;
  spec.m = 400;
  const Coreset coreset = api::Build(spec, points, {}, rng)->coreset;
  DistortionOptions options;
  options.k = 10;
  Rng probe_rng_a(10), probe_rng_b(10);
  const double single =
      CoresetDistortion(points, {}, coreset, options, probe_rng_a);
  const double multi =
      MaxDistortionOverProbes(points, {}, coreset, options, 5, probe_rng_b);
  EXPECT_GE(multi, single - 1e-12);
  // A strong coreset stays bounded under extra probes too.
  EXPECT_LT(multi, 1.5);
}

TEST(MultiProbeDistortionTest, ExposesMissingClusterFasterThanSingle) {
  // Coreset missing a far cluster: a probe seeded on the full data places
  // a center at the missing cluster and the coreset cost collapses there.
  Rng rng(11);
  const size_t n = 5000;
  Matrix points(n, 1);
  for (size_t i = 0; i < n - 15; ++i) points.At(i, 0) = rng.NextGaussian();
  for (size_t i = n - 15; i < n; ++i) points.At(i, 0) = 1e4;

  std::vector<size_t> rows(200);
  for (size_t i = 0; i < 200; ++i) rows[i] = i;
  Coreset bad;
  bad.indices = rows;
  bad.points = points.SelectRows(rows);
  bad.weights.assign(200, static_cast<double>(n) / 200.0);

  DistortionOptions options;
  options.k = 2;
  const double multi =
      MaxDistortionOverProbes(points, {}, bad, options, 5, rng);
  EXPECT_GT(multi, 10.0);
}

TEST(CrudeApproxIntegrationTest, FeedsFastCoresetOnPathologicalSpread) {
  Rng rng(12);
  // Pathological spread instance end-to-end through the full pipeline.
  const Matrix points = GenerateSpreadDataset(20000, 45, rng);
  const CrudeApproxResult crude = CrudeApprox(points, 50, rng);
  ASSERT_GT(crude.upper_bound, 0.0);

  FastCoresetOptions options;
  options.k = 50;
  options.m = 1000;
  options.use_jl = false;
  options.use_spread_reduction = true;
  const Coreset coreset = FastCoreset(points, {}, options, rng);
  DistortionOptions probe;
  probe.k = 50;
  EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 2.0);
}

TEST(WeightedEndToEndTest, PreWeightedInputFlowsThroughEverything) {
  // Simulate a pre-aggregated input (e.g. the output of another coreset).
  Rng rng(13);
  const Matrix points = GenerateGaussianMixture(4000, 6, 8, 1.0, rng);
  std::vector<double> weights(points.rows());
  for (double& w : weights) w = 1.0 + 4.0 * rng.NextDouble();
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;

  const std::vector<std::string> spectrum = {
      "uniform", "lightweight", "welterweight", "sensitivity",
      "fast_coreset"};
  for (size_t s = 0; s < spectrum.size(); ++s) {
    api::CoresetSpec spec;
    spec.method = spectrum[s];
    spec.k = 8;
    spec.m = 300;
    Rng local(200 + s);
    const Coreset coreset = api::Build(spec, points, weights, local)->coreset;
    EXPECT_NEAR(coreset.TotalWeight() / total_weight, 1.0, 0.25)
        << spec.method;
    DistortionOptions probe;
    probe.k = 8;
    EXPECT_LT(CoresetDistortion(points, weights, coreset, probe, local), 2.0)
        << spec.method;
  }
}

}  // namespace
}  // namespace fastcoreset
