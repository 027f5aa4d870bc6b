// Sharded-build quality: a sharded coreset must be about as good as the
// unsharded build of the same data and spec. The weighted union of shard
// coresets is itself a coreset of the whole dataset (the paper's
// composability argument), so one reduce of that union should cost
// little accuracy; compounding re-sampling would not. Fixed seeds, mean
// distortion over several build seeds, shards {2, 4, 8} against
// shards = 1, for every method in the method table.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/generators.h"
#include "src/eval/distortion.h"
#include "src/service/shard_planner.h"

namespace fastcoreset {
namespace {

constexpr uint64_t kSeeds = 8;

/// The paper's distortion: max over the coreset-derived solution and one
/// probe seeded on the full data.
double Distortion(const Matrix& points, const Coreset& coreset, size_t k,
                  uint64_t seed) {
  DistortionOptions options;
  options.k = k;
  options.z = 2;
  Rng rng(seed);
  return MaxDistortionOverProbes(points, {}, coreset, options,
                                 /*extra_probes=*/1, rng);
}

/// Mean distortion over build seeds 1..kSeeds of the sharded build.
double MeanShardedDistortion(const Matrix& points, api::CoresetSpec spec,
                             size_t shards) {
  double sum = 0.0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    spec.seed = seed;
    const auto built = service::BuildSharded(spec, points, shards);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    if (!built.ok()) return INFINITY;
    sum += Distortion(points, built->coreset, spec.k, 100 + seed);
  }
  return sum / static_cast<double>(kSeeds);
}

/// Every shard count in {2, 4, 8} stays finite and within `bound` times
/// the unsharded mean distortion.
void ExpectShardedCloseToUnsharded(const Matrix& points,
                                   const api::CoresetSpec& spec,
                                   double bound) {
  const double unsharded = MeanShardedDistortion(points, spec, 1);
  ASSERT_TRUE(std::isfinite(unsharded));
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    const double sharded = MeanShardedDistortion(points, spec, shards);
    EXPECT_TRUE(std::isfinite(sharded)) << "shards=" << shards;
    EXPECT_LE(sharded, bound * unsharded)
        << "shards=" << shards << " mean distortion " << sharded
        << " vs unsharded " << unsharded;
  }
}

/// The Gaussian-mixture data every per-method case below builds on.
Matrix GaussianMixturePoints() {
  Rng rng(2024);
  return GenerateGaussianMixture(/*n=*/10000, /*d=*/8, /*kappa=*/16,
                                 /*gamma=*/0.5, rng);
}

api::CoresetSpec GaussianMixtureSpec(const std::string& method) {
  api::CoresetSpec spec;
  spec.method = method;
  spec.k = 25;
  spec.m = 1000;
  return spec;
}

TEST(ShardedQualityTest, GaussianMixtureFastCoresetTracksUnsharded) {
  ExpectShardedCloseToUnsharded(GaussianMixturePoints(),
                                GaussianMixtureSpec("fast_coreset"), 1.05);
}

TEST(ShardedQualityTest, GaussianMixtureGroupSamplingTracksUnsharded) {
  ExpectShardedCloseToUnsharded(GaussianMixturePoints(),
                                GaussianMixtureSpec("group_sampling"), 1.1);
}

TEST(ShardedQualityTest, GaussianMixtureLightweightTracksUnsharded) {
  ExpectShardedCloseToUnsharded(GaussianMixturePoints(),
                                GaussianMixtureSpec("lightweight"), 1.1);
}

TEST(ShardedQualityTest, GaussianMixtureSensitivityTracksUnsharded) {
  ExpectShardedCloseToUnsharded(GaussianMixturePoints(),
                                GaussianMixtureSpec("sensitivity"), 1.1);
}

TEST(ShardedQualityTest, GaussianMixtureStreamKmTracksUnsharded) {
  ExpectShardedCloseToUnsharded(GaussianMixturePoints(),
                                GaussianMixtureSpec("stream_km"), 1.1);
}

TEST(ShardedQualityTest, GaussianMixtureWelterweightTracksUnsharded) {
  ExpectShardedCloseToUnsharded(GaussianMixturePoints(),
                                GaussianMixtureSpec("welterweight"), 1.1);
}

TEST(ShardedQualityTest, GaussianMixtureBicoStaysFinite) {
  // Finite only: BICO's unsharded distortion is already several times 1
  // at this m (the shape of the paper's Table 6), so a ratio against it
  // measures BICO's own variance, not what the merge costs.
  const Matrix points = GaussianMixturePoints();
  const api::CoresetSpec spec = GaussianMixtureSpec("bico");
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    EXPECT_TRUE(std::isfinite(MeanShardedDistortion(points, spec, shards)))
        << "shards=" << shards;
  }
}

TEST(ShardedQualityTest, COutlierUniformTracksUnsharded) {
  // Missing the c far points is catastrophic for the cost, so a merge
  // that re-samples them away shows up as an unbounded distortion; each
  // extra re-sampling pass also adds its own sampling error.
  Rng rng(2025);
  const Matrix points = GenerateCOutlier(/*n=*/10000, /*c=*/200, /*d=*/8,
                                         /*separation=*/100.0, rng);
  api::CoresetSpec spec;
  spec.method = "uniform";
  spec.k = 10;
  spec.m = 400;
  ExpectShardedCloseToUnsharded(points, spec, 1.1);
}

}  // namespace
}  // namespace fastcoreset
