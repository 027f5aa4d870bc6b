// Parameterized property suites (TEST_P sweeps) covering the invariants
// that must hold across the whole configuration space:
//   - every sampler x objective x size: distortion bounded on benign data,
//     total weight concentrated around n, indices valid;
//   - every seeder x objective: assignments consistent with reported costs;
//   - quadtree invariants across dimensions and depth caps;
//   - merge-&-reduce invariants across block sizes.

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/fastcoreset.h"
#include "src/clustering/cost.h"
#include "src/clustering/fast_kmeans_plus_plus.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/clustering/tree_greedy.h"
#include "src/core/group_sampling.h"
#include "src/data/generators.h"
#include "src/eval/distortion.h"
#include "src/geometry/distance.h"
#include "src/geometry/quadtree.h"
#include "src/streaming/merge_reduce.h"

namespace fastcoreset {
namespace {

Matrix BenignBlobs(size_t n, size_t d, size_t blobs, uint64_t seed) {
  Rng rng(seed);
  return GenerateGaussianMixture(n, d, blobs, /*gamma=*/0.5, rng);
}

// ---------------------------------------------------------------------
// Sampler sweep: kind x z x m.

using SamplerParam = std::tuple<const char*, int, size_t>;

/// Spec for one sweep point; all sampler properties build through the
/// facade, so the sweep also covers the method-table dispatch path.
api::CoresetSpec SweepSpec(const SamplerParam& param, size_t k) {
  api::CoresetSpec spec;
  spec.method = std::get<0>(param);
  spec.k = k;
  spec.m = std::get<2>(param);
  spec.z = std::get<1>(param);
  return spec;
}

class SamplerProperty : public ::testing::TestWithParam<SamplerParam> {};

TEST_P(SamplerProperty, DistortionBoundedOnBenignData) {
  const Matrix points = BenignBlobs(8000, 10, 10, 1);
  Rng rng(2);
  const Coreset coreset =
      api::Build(SweepSpec(GetParam(), 10), points, {}, rng)->coreset;
  DistortionOptions probe;
  probe.k = 10;
  probe.z = std::get<1>(GetParam());
  EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 2.0);
}

TEST_P(SamplerProperty, WeightsPositiveAndTotalNearN) {
  const Matrix points = BenignBlobs(8000, 10, 10, 3);
  Rng rng(4);
  const Coreset coreset =
      api::Build(SweepSpec(GetParam(), 10), points, {}, rng)->coreset;
  for (double w : coreset.weights) EXPECT_GT(w, 0.0);
  EXPECT_NEAR(coreset.TotalWeight() / 8000.0, 1.0, 0.25);
}

TEST_P(SamplerProperty, IndicesValidAndPointsMatchSource) {
  const Matrix points = BenignBlobs(4000, 6, 8, 5);
  Rng rng(6);
  const Coreset coreset =
      api::Build(SweepSpec(GetParam(), 8), points, {}, rng)->coreset;
  ASSERT_EQ(coreset.indices.size(), coreset.size());
  ASSERT_EQ(coreset.weights.size(), coreset.size());
  for (size_t r = 0; r < coreset.size(); ++r) {
    if (coreset.indices[r] == Coreset::kSyntheticIndex) continue;
    ASSERT_LT(coreset.indices[r], points.rows());
    EXPECT_EQ(coreset.points.At(r, 0), points.At(coreset.indices[r], 0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSamplersObjectivesSizes, SamplerProperty,
    ::testing::Combine(::testing::Values("uniform", "lightweight",
                                         "welterweight", "sensitivity",
                                         "fast_coreset"),
                       ::testing::Values(1, 2),
                       ::testing::Values(size_t{200}, size_t{800})),
    [](const ::testing::TestParamInfo<SamplerParam>& info) {
      return std::string(std::get<0>(info.param)) + "_z" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Seeder sweep: algorithm x z.

enum class Seeder { kKmpp, kFastKmpp, kTreeGreedy };

std::string SeederLabel(Seeder seeder) {
  switch (seeder) {
    case Seeder::kKmpp:
      return "Kmpp";
    case Seeder::kFastKmpp:
      return "FastKmpp";
    case Seeder::kTreeGreedy:
      return "TreeGreedy";
  }
  return "Unknown";
}

using SeederParam = std::tuple<Seeder, int>;

class SeederProperty : public ::testing::TestWithParam<SeederParam> {};

TEST_P(SeederProperty, ReportedCostsMatchAssignment) {
  const auto [seeder, z] = GetParam();
  const Matrix points = BenignBlobs(3000, 5, 6, 7);
  Rng rng(8);
  Clustering result;
  switch (seeder) {
    case Seeder::kKmpp:
      result = KMeansPlusPlus(points, {}, 6, z, rng);
      break;
    case Seeder::kFastKmpp: {
      FastKMeansPlusPlusOptions options;
      options.z = z;
      result = FastKMeansPlusPlus(points, {}, 6, options, rng);
      break;
    }
    case Seeder::kTreeGreedy: {
      TreeGreedyOptions options;
      options.z = z;
      result = TreeGreedySeeding(points, {}, 6, options, rng);
      break;
    }
  }
  ASSERT_GT(result.centers.rows(), 0u);
  double total = 0.0;
  for (size_t i = 0; i < points.rows(); ++i) {
    ASSERT_LT(result.assignment[i], result.centers.rows());
    const double expected = DistPow(
        points.Row(i), result.centers.Row(result.assignment[i]), z);
    EXPECT_NEAR(result.point_costs[i], expected, 1e-9 + 1e-9 * expected);
    total += result.point_costs[i];
  }
  EXPECT_NEAR(result.total_cost, total, 1e-6 * (1.0 + total));
}

TEST_P(SeederProperty, CostWithinPolylogOfReference) {
  const auto [seeder, z] = GetParam();
  const Matrix points = BenignBlobs(3000, 5, 6, 9);
  Rng ref_rng(10);
  const double reference =
      KMeansPlusPlus(points, {}, 6, z, ref_rng).total_cost;
  double total = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    Rng rng(100 + t);
    switch (seeder) {
      case Seeder::kKmpp:
        total += KMeansPlusPlus(points, {}, 6, z, rng).total_cost;
        break;
      case Seeder::kFastKmpp: {
        FastKMeansPlusPlusOptions options;
        options.z = z;
        total += FastKMeansPlusPlus(points, {}, 6, options, rng).total_cost;
        break;
      }
      case Seeder::kTreeGreedy: {
        TreeGreedyOptions options;
        options.z = z;
        total += TreeGreedySeeding(points, {}, 6, options, rng).total_cost;
        break;
      }
    }
  }
  EXPECT_LT(total / trials, 500.0 * reference + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllSeeders, SeederProperty,
    ::testing::Combine(::testing::Values(Seeder::kKmpp, Seeder::kFastKmpp,
                                         Seeder::kTreeGreedy),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<SeederParam>& info) {
      return SeederLabel(std::get<0>(info.param)) + "_z" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Quadtree sweep: dimension x depth cap.

using QuadtreeParam = std::tuple<size_t, int>;

class QuadtreeProperty : public ::testing::TestWithParam<QuadtreeParam> {};

TEST_P(QuadtreeProperty, PartitionAndDomination) {
  const auto [d, depth] = GetParam();
  Rng data_rng(11);
  Matrix points(500, d);
  for (double& x : points.data()) x = data_rng.Uniform(0.0, 100.0);
  Rng rng(12);
  Quadtree tree(points, rng, depth);

  // Partition: every point in exactly one leaf.
  std::vector<int> seen(points.rows(), 0);
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const auto v = static_cast<int32_t>(id);
    EXPECT_LE(tree.level(v), depth);
    for (uint32_t p : tree.points(v)) ++seen[p];
  }
  for (int count : seen) EXPECT_EQ(count, 1);

  // Domination: tree distance >= Euclidean (or genuinely co-located).
  for (size_t i = 0; i < points.rows(); i += 53) {
    for (size_t j = i + 1; j < points.rows(); j += 79) {
      const double euclid = L2(points.Row(i), points.Row(j));
      const double in_tree = tree.TreeDistance(i, j);
      if (in_tree == 0.0) {
        EXPECT_LT(euclid,
                  std::sqrt(static_cast<double>(d)) * tree.CellSide(depth) +
                      1e-12);
      } else {
        EXPECT_GE(in_tree, euclid * 0.999);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndDepths, QuadtreeProperty,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{8},
                                         size_t{32}),
                       ::testing::Values(4, 12, 40)),
    [](const ::testing::TestParamInfo<QuadtreeParam>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_depth" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Merge-&-reduce sweep over block sizes.

class MergeReduceProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(MergeReduceProperty, IndicesGlobalAndWeightConserved) {
  const size_t block = GetParam();
  Rng data_rng(13);
  Matrix points(3000, 2);
  for (size_t i = 0; i < points.rows(); ++i) {
    points.At(i, 0) = static_cast<double>(i);  // Identifiable rows.
    points.At(i, 1) = data_rng.NextGaussian();
  }
  Rng rng(14);
  const Coreset coreset = StreamingCompress(
      points, {},
      [] {
        api::CoresetSpec spec;
        spec.method = "sensitivity";
        spec.k = 6;
        return api::MakeBuilder(spec).value();
      }(),
      block, /*m=*/300, rng);
  for (size_t r = 0; r < coreset.size(); ++r) {
    if (coreset.indices[r] == Coreset::kSyntheticIndex) continue;
    ASSERT_LT(coreset.indices[r], points.rows());
    EXPECT_EQ(coreset.points.At(r, 0),
              points.At(coreset.indices[r], 0));
  }
  EXPECT_NEAR(coreset.TotalWeight() / 3000.0, 1.0, 0.35);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, MergeReduceProperty,
                         ::testing::Values(size_t{301}, size_t{512},
                                           size_t{1000}, size_t{3000}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "block" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Group sampling eps sweep.

class GroupSamplingProperty : public ::testing::TestWithParam<double> {};

TEST_P(GroupSamplingProperty, DistortionAndWeightAcrossEps) {
  const double eps = GetParam();
  const Matrix points = BenignBlobs(6000, 8, 8, 15);
  Rng rng(16);
  GroupSamplingOptions options;
  options.eps = eps;
  const Coreset coreset =
      GroupSamplingCoreset(points, {}, 8, 400, 2, options, rng);
  EXPECT_NEAR(coreset.TotalWeight() / 6000.0, 1.0, 0.2);
  DistortionOptions probe;
  probe.k = 8;
  EXPECT_LT(CoresetDistortion(points, {}, coreset, probe, rng), 2.0);
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, GroupSamplingProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "eps" +
                                  std::to_string(static_cast<int>(
                                      info.param * 10));
                         });

}  // namespace
}  // namespace fastcoreset
