// Determinism suite for the parallel substrate contract (parallel.h):
// chunk geometry depends only on the input size, reductions merge in
// chunk order, and all RNG consumption is serial — so every pipeline
// result is bit-identical at ANY worker count, not merely reproducible
// at a fixed one. These tests pin that guarantee end to end by running
// the kernels and the full coreset pipelines at FC_THREADS ∈ {1, 4} and
// asserting exact equality.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <ranges>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/fastcoreset.h"
#include "src/clustering/cost.h"
#include "src/clustering/fast_kmeans_plus_plus.h"
#include "src/clustering/kmeans_parallel.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/clustering/lloyd.h"
#include "src/common/parallel.h"
#include "src/core/fast_coreset.h"
#include "src/core/importance.h"
#include "src/core/sensitivity_sampling.h"
#include "src/data/generators.h"
#include "src/geometry/distance.h"
#include "src/geometry/quadtree.h"
#include "src/spread/crude_approx.h"
#include "src/spread/reduce_spread.h"
#include "src/service/fingerprint.h"
#include "src/service/shard_planner.h"

namespace fastcoreset {
namespace {

// Large enough that the chunk plan splits the range (engaging real
// worker threads at FC_THREADS > 1) — see kSerialCutoff in parallel.cc.
constexpr size_t kRows = 6000;

Matrix TestPoints(size_t d, uint64_t seed) {
  Rng rng(seed);
  return GenerateGaussianMixture(kRows, d, /*kappa=*/12, /*gamma=*/0.5, rng);
}

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(size_t count) { SetNumThreads(count); }
  ~ThreadCountGuard() { ResetNumThreads(); }
};

TEST(DeterminismTest, AssignToNearestBitIdenticalAcrossThreadCounts) {
  const Matrix points = TestPoints(8, 101);
  Rng rng(102);
  Matrix centers(20, 8);
  for (size_t c = 0; c < 20; ++c) {
    centers.CopyRowFrom(points, rng.NextIndex(points.rows()), c);
  }
  std::vector<size_t> idx1, idx4;
  std::vector<double> sq1, sq4;
  {
    ThreadCountGuard guard(1);
    AssignToNearest(points, centers, &idx1, &sq1);
  }
  {
    ThreadCountGuard guard(4);
    AssignToNearest(points, centers, &idx4, &sq4);
  }
  EXPECT_EQ(idx1, idx4);
  EXPECT_EQ(sq1, sq4);  // Exact, not approximate.
}

TEST(DeterminismTest, CostReductionsBitIdenticalAcrossThreadCounts) {
  const Matrix points = TestPoints(6, 103);
  Rng rng(104);
  Matrix centers(15, 6);
  for (size_t c = 0; c < 15; ++c) {
    centers.CopyRowFrom(points, rng.NextIndex(points.rows()), c);
  }
  std::vector<double> weights(points.rows());
  for (double& w : weights) w = rng.NextDouble() + 0.1;

  double cost1, cost4, median1, median4;
  {
    ThreadCountGuard guard(1);
    cost1 = CostToCenters(points, weights, centers, 2);
    median1 = CostToCenters(points, weights, centers, 1);
  }
  {
    ThreadCountGuard guard(4);
    cost4 = CostToCenters(points, weights, centers, 2);
    median4 = CostToCenters(points, weights, centers, 1);
  }
  EXPECT_EQ(cost1, cost4);
  EXPECT_EQ(median1, median4);
}

void ExpectCoresetsIdentical(const Coreset& a, const Coreset& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.points.data(), b.points.data());
}

TEST(DeterminismTest, FastCoresetBitIdenticalAcrossThreadCounts) {
  const Matrix points = TestPoints(10, 105);
  FastCoresetOptions options;
  Coreset coreset1, coreset4;
  {
    ThreadCountGuard guard(1);
    Rng rng(106);
    coreset1 = FastCoreset(points, {}, 12, 240, 2, options, rng);
  }
  {
    ThreadCountGuard guard(4);
    Rng rng(106);
    coreset4 = FastCoreset(points, {}, 12, 240, 2, options, rng);
  }
  ExpectCoresetsIdentical(coreset1, coreset4);
}

TEST(DeterminismTest, KMeansPlusPlusBitIdenticalAcrossThreadCounts) {
  // k-means++ now samples from an incrementally-updated Fenwick
  // distribution whose update batches are collected per chunk and applied
  // in chunk order — the sequence of center draws must not depend on the
  // executor count, only on the chunk plan.
  const Matrix points = TestPoints(9, 113);
  std::vector<double> weights(points.rows());
  {
    Rng wrng(114);
    for (double& w : weights) w = wrng.NextDouble() + 0.05;
  }
  for (int z : {1, 2}) {
    Clustering result1, result4;
    {
      ThreadCountGuard guard(1);
      Rng rng(115);
      result1 = KMeansPlusPlus(points, weights, 16, z, rng);
    }
    {
      ThreadCountGuard guard(4);
      Rng rng(115);
      result4 = KMeansPlusPlus(points, weights, 16, z, rng);
    }
    EXPECT_EQ(result1.assignment, result4.assignment) << "z=" << z;
    EXPECT_EQ(result1.point_costs, result4.point_costs) << "z=" << z;
    EXPECT_EQ(result1.total_cost, result4.total_cost) << "z=" << z;
    EXPECT_EQ(result1.centers.data(), result4.centers.data()) << "z=" << z;
  }
}

TEST(DeterminismTest, KMeansPlusPlusWorkCountIdenticalAcrossThreadCounts) {
  // The k-means++ counts are summed per block, so they are a function of
  // the input alone. On a well-separated mixture the point test rules out
  // most of the distances. The block test rules out a smaller share of
  // the n·(k−1) rows of the rounds here (about 40%): the 12 clusters hold
  // about 500 rows each, so most 512-row blocks straddle two of them.
  // Every golden would still pass with either test off, so these bounds
  // are what notice.
  const Matrix points = TestPoints(8, 121);
  const size_t k = 100;
  const auto work = [&](const char* method, size_t threads) {
    ThreadCountGuard guard(threads);
    api::CoresetSpec spec;
    spec.method = method;
    spec.k = k;
    spec.m = 400;
    spec.seed = 122;
    const auto result = api::Build(spec, points);
    EXPECT_TRUE(result.ok()) << result.status().message();
    return result.ok() ? result->diagnostics.work : WorkCounters{};
  };
  for (const char* method :
       {"sensitivity", "welterweight", "group_sampling", "stream_km"}) {
    const WorkCounters serial = work(method, 1);
    const WorkCounters parallel = work(method, 4);
    EXPECT_GT(serial.kmeanspp_distance_evals, 0u) << method;
    EXPECT_GT(serial.kmeanspp_rows_tested, 0u) << method;
    EXPECT_EQ(serial.kmeanspp_distance_evals, parallel.kmeanspp_distance_evals)
        << method;
    EXPECT_EQ(serial.kmeanspp_rows_tested, parallel.kmeanspp_rows_tested)
        << method;
  }
  const WorkCounters sensitivity = work("sensitivity", 4);
  EXPECT_LE(sensitivity.kmeanspp_rows_tested, kRows * (k - 1) * 2 / 3);
  EXPECT_LE(sensitivity.kmeanspp_distance_evals, kRows * (k - 1) / 4);
  EXPECT_EQ(work("fast_coreset", 4).kmeanspp_distance_evals, 0u);
}

TEST(DeterminismTest, SensitivitySamplingBitIdenticalAcrossThreadCounts) {
  const Matrix points = TestPoints(7, 107);
  Coreset coreset1, coreset4;
  {
    ThreadCountGuard guard(1);
    Rng rng(108);
    coreset1 = SensitivitySamplingCoreset(points, {}, 10, 200, 2, rng);
  }
  {
    ThreadCountGuard guard(4);
    Rng rng(108);
    coreset4 = SensitivitySamplingCoreset(points, {}, 10, 200, 2, rng);
  }
  ExpectCoresetsIdentical(coreset1, coreset4);
}

TEST(DeterminismTest, KMeansParallelBitIdenticalAcrossThreadCounts) {
  const Matrix points = TestPoints(8, 117);
  KMeansParallelOptions options;
  options.rounds = 4;
  Clustering result1, result4;
  {
    ThreadCountGuard guard(1);
    Rng rng(118);
    result1 = KMeansParallel(points, {}, 10, options, rng);
  }
  {
    ThreadCountGuard guard(4);
    Rng rng(118);
    result4 = KMeansParallel(points, {}, 10, options, rng);
  }
  EXPECT_EQ(result1.assignment, result4.assignment);
  EXPECT_EQ(result1.total_cost, result4.total_cost);
  EXPECT_EQ(result1.centers.data(), result4.centers.data());
}

TEST(DeterminismTest, LloydBitIdenticalAcrossThreadCounts) {
  const Matrix points = TestPoints(5, 109);
  Rng rng(110);
  Matrix seeds(8, 5);
  for (size_t c = 0; c < 8; ++c) {
    seeds.CopyRowFrom(points, rng.NextIndex(points.rows()), c);
  }
  LloydOptions options;
  options.max_iters = 6;
  Clustering result1, result4;
  {
    ThreadCountGuard guard(1);
    result1 = LloydKMeans(points, {}, seeds, options);
  }
  {
    ThreadCountGuard guard(4);
    result4 = LloydKMeans(points, {}, seeds, options);
  }
  EXPECT_EQ(result1.assignment, result4.assignment);
  EXPECT_EQ(result1.total_cost, result4.total_cost);
  EXPECT_EQ(result1.centers.data(), result4.centers.data());
}

// The spread path stores grid cells in unordered containers (Crude-Approx
// cell counting, Reduce-Spread box ids). None of them may let
// hash-iteration order reach results — these tests pin that, at any
// thread count and across repeated runs.

TEST(DeterminismTest, FastCoresetSpreadPathBitIdenticalAcrossThreadCounts) {
  const Matrix points = TestPoints(8, 119);
  FastCoresetOptions options;
  options.use_spread_reduction = true;
  Coreset coreset1, coreset4;
  {
    ThreadCountGuard guard(1);
    Rng rng(120);
    coreset1 = FastCoreset(points, {}, 10, 200, 2, options, rng);
  }
  {
    ThreadCountGuard guard(4);
    Rng rng(120);
    coreset4 = FastCoreset(points, {}, 10, 200, 2, options, rng);
  }
  ExpectCoresetsIdentical(coreset1, coreset4);

  // Second run, same seed, same thread count: bit-equal with the first.
  {
    ThreadCountGuard guard(4);
    Rng rng(120);
    const Coreset again = FastCoreset(points, {}, 10, 200, 2, options, rng);
    ExpectCoresetsIdentical(coreset4, again);
  }
}

TEST(DeterminismTest, ReduceSpreadBitIdenticalAcrossThreadCountsAndRuns) {
  const Matrix points = TestPoints(6, 121);
  const double upper_bound = 50.0;
  SpreadReduction red1, red4;
  {
    ThreadCountGuard guard(1);
    Rng rng(122);
    red1 = ReduceSpread(points, upper_bound, /*log_spread_hint=*/64, rng);
  }
  {
    ThreadCountGuard guard(4);
    Rng rng(122);
    red4 = ReduceSpread(points, upper_bound, /*log_spread_hint=*/64, rng);
  }
  EXPECT_EQ(red1.points.data(), red4.points.data());
  EXPECT_EQ(red1.box_of_point, red4.box_of_point);
  EXPECT_EQ(red1.box_shift.data(), red4.box_shift.data());
  EXPECT_EQ(red1.grid_size, red4.grid_size);
  EXPECT_EQ(red1.num_boxes, red4.num_boxes);

  {
    ThreadCountGuard guard(4);
    Rng rng(122);
    const SpreadReduction again =
        ReduceSpread(points, upper_bound, /*log_spread_hint=*/64, rng);
    EXPECT_EQ(red4.points.data(), again.points.data());
    EXPECT_EQ(red4.box_of_point, again.box_of_point);
  }
}

TEST(DeterminismTest, CrudeApproxBitIdenticalAcrossThreadCountsAndRuns) {
  const Matrix points = TestPoints(5, 123);
  CrudeApproxResult res1, res4;
  {
    ThreadCountGuard guard(1);
    Rng rng(124);
    res1 = CrudeApprox(points, /*k=*/10, rng);
  }
  {
    ThreadCountGuard guard(4);
    Rng rng(124);
    res4 = CrudeApprox(points, /*k=*/10, rng);
  }
  EXPECT_EQ(res1.upper_bound, res4.upper_bound);
  EXPECT_EQ(res1.lower_bound, res4.lower_bound);
  EXPECT_EQ(res1.split_level, res4.split_level);
  EXPECT_EQ(res1.probes, res4.probes);

  {
    ThreadCountGuard guard(4);
    Rng rng(124);
    const CrudeApproxResult again = CrudeApprox(points, /*k=*/10, rng);
    EXPECT_EQ(res4.upper_bound, again.upper_bound);
    EXPECT_EQ(res4.split_level, again.split_level);
  }
}

// Node-for-node equality of two trees: same ids, levels, parents, leaf
// flags, child ranges and leaf point lists.
void ExpectSameTree(const Quadtree& a, const Quadtree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_points(), b.num_points());
  EXPECT_EQ(a.shift(), b.shift());
  EXPECT_EQ(a.root_side(), b.root_side());
  for (size_t p = 0; p < a.num_points(); ++p) {
    ASSERT_EQ(a.LeafOfPoint(p), b.LeafOfPoint(p)) << "point " << p;
  }
  for (size_t id = 0; id < a.num_nodes(); ++id) {
    const auto v = static_cast<int32_t>(id);
    ASSERT_EQ(a.level(v), b.level(v)) << "node " << id;
    ASSERT_EQ(a.parent(v), b.parent(v)) << "node " << id;
    ASSERT_EQ(a.is_leaf(v), b.is_leaf(v)) << "node " << id;
    ASSERT_TRUE(std::ranges::equal(a.children(v), b.children(v)))
        << "node " << id;
    ASSERT_TRUE(std::ranges::equal(a.points(v), b.points(v)))
        << "node " << id;
  }
}

TEST(DeterminismTest, QuadtreeStructureIdenticalAcrossRepeatedBuilds) {
  // Structure must come only from the points and the shift, never from
  // scratch state or scheduling. Two same-seed builds must agree node for
  // node.
  const Matrix points = TestPoints(4, 125);
  Rng rng_a(126), rng_b(126);
  const Quadtree tree_a(points, rng_a, /*max_depth=*/12);
  const Quadtree tree_b(points, rng_b, /*max_depth=*/12);
  ExpectSameTree(tree_a, tree_b);
}

TEST(DeterminismTest, QuadtreeStructureIdenticalAcrossThreadCounts) {
  // The per-level code pass and cell partitions run on the pool; large
  // inputs split them into many chunks. Adaptive, duplicate-heavy and
  // full-depth trees must agree node for node at 1 and 4 threads.
  Rng data_rng(129);
  const Matrix points =
      GenerateGaussianMixture(40000, 5, /*kappa=*/6, /*gamma=*/0.5, data_rng);
  std::vector<size_t> rows(points.rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = (i * 7) % 9000;
  const Matrix duplicated = points.SelectRows(rows);
  const std::vector<std::pair<const Matrix*, QuadtreeOptions>> cases = {
      {&points, {60, false}},
      {&duplicated, {40, false}},
      {&points, {14, true}},
  };
  for (const auto& [data, options] : cases) {
    std::optional<Quadtree> serial, threaded;
    {
      ThreadCountGuard guard(1);
      Rng rng(130);
      serial.emplace(*data, rng, options);
    }
    {
      ThreadCountGuard guard(4);
      Rng rng(130);
      threaded.emplace(*data, rng, options);
    }
    ExpectSameTree(*serial, *threaded);
  }
}

TEST(DeterminismTest, ConcurrentShardBuildsBitIdenticalToSequentialWalk) {
  // RunTasks runs shard builds concurrently; the schedule must never
  // reach results. Pin concurrent (parallelism = 0, all workers) against
  // the sequential reference walk (parallelism = 1) bit for bit, across
  // shard counts and thread counts.
  const Matrix points = TestPoints(7, 127);
  api::CoresetSpec spec;
  spec.method = "fast_coreset";
  spec.k = 8;
  spec.m = 160;
  spec.seed = 128;
  for (size_t shards : {1, 2, 4, 8}) {
    Coreset sequential;
    {
      ThreadCountGuard guard(1);
      auto result = service::BuildSharded(spec, points, shards,
                                          /*parallelism=*/1);
      ASSERT_TRUE(result.ok()) << result.status().message();
      sequential = std::move(result->coreset);
    }
    for (size_t threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      auto concurrent = service::BuildSharded(spec, points, shards,
                                              /*parallelism=*/0);
      ASSERT_TRUE(concurrent.ok()) << concurrent.status().message();
      ExpectCoresetsIdentical(sequential, concurrent->coreset);
      // Every shard slot was built, and the merge ran iff shards > 1.
      const service::ShardedBuildDiagnostics& diag = concurrent->diagnostics;
      ASSERT_EQ(diag.shards.size(), shards);
      for (const service::ShardDiagnostics& shard : diag.shards) {
        EXPECT_GT(shard.build.output_rows, 0u)
            << "shards=" << shards << " threads=" << threads
            << " shard=" << shard.index;
      }
      EXPECT_EQ(diag.has_merge, shards > 1)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(DeterminismTest, RepeatedRunsIdenticalAtFixedThreadCount) {
  const Matrix points = TestPoints(6, 111);
  FastCoresetOptions options;
  ThreadCountGuard guard(4);
  Rng rng_a(112), rng_b(112);
  const Coreset a = FastCoreset(points, {}, 8, 160, 2, options, rng_a);
  const Coreset b = FastCoreset(points, {}, 8, 160, 2, options, rng_b);
  ExpectCoresetsIdentical(a, b);
}

TEST(DeterminismTest, FastKMeansPlusPlusStopsWhenEveryPointIsCovered) {
  // Regression: once every uncovered mass reaches zero, Fenwick rounding
  // can leave a positive total. Each later draw then lands on a zero-mass
  // (covered) slot and used to be added as a duplicate center until k
  // were returned. A depth cap of 3 packs the 700 distinct rows into a
  // few multi-point leaves, and the seeder returned 900 centers with 8
  // distinct.
  const Matrix points = TestPoints(6, 304);
  std::vector<size_t> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) rows[i] = i % 700;
  const Matrix duplicated = points.SelectRows(rows);
  for (const int max_depth : {3, 60}) {
    FastKMeansPlusPlusOptions options;
    options.z = 1;
    options.max_depth = max_depth;
    Rng rng(305);
    const Clustering clustering =
        FastKMeansPlusPlus(duplicated, {}, 900, options, rng);
    const size_t centers = clustering.centers.rows();
    EXPECT_LE(centers, 700u) << "max_depth " << max_depth;
    std::vector<std::vector<double>> distinct;
    for (size_t c = 0; c < centers; ++c) {
      const auto row = clustering.centers.Row(c);
      distinct.emplace_back(row.begin(), row.end());
    }
    std::sort(distinct.begin(), distinct.end());
    const auto unique_end = std::unique(distinct.begin(), distinct.end());
    EXPECT_EQ(static_cast<size_t>(unique_end - distinct.begin()), centers)
        << "max_depth " << max_depth;
  }
}

// ---------------------------------------------------------------------
// Golden fingerprints. Every constant below was captured from the
// insertion-built quadtree that the bulk, level-synchronous build
// replaced. The seeders read the tree only through its structure (cells,
// child order, leaf point order), so any change to that structure — or
// to the order the seeder walks it — shows up here as a different
// fingerprint. Update a constant only for a change that is meant to
// alter seeding results, and say so in the change description. A
// full-depth tree only extends the adaptive one below its leaves, which
// leaves every tree distance unchanged: those cases pin the adaptive
// fingerprint by design.

uint64_t FingerprintClustering(const Clustering& clustering, Rng& rng) {
  uint64_t state = service::FingerprintMatrix(clustering.centers);
  state = service::FingerprintDoubles(clustering.point_costs, state);
  state = service::Fnv1a64(clustering.assignment.data(),
                           clustering.assignment.size() * sizeof(size_t),
                           state);
  state = service::Fnv1a64(&clustering.total_cost, sizeof(double), state);
  // The generator state after the call: the seeder must consume exactly
  // the same draws.
  return service::Fnv1a64(rng.NextU64(), state);
}

struct GoldenCase {
  const char* name;
  uint64_t expected;
  std::function<uint64_t()> fingerprint;
};

void ExpectGolden(const std::vector<GoldenCase>& cases) {
  for (const GoldenCase& golden : cases) {
    const uint64_t actual = golden.fingerprint();
    EXPECT_EQ(actual, golden.expected)
        << golden.name << ": got 0x" << service::FingerprintHex(actual);
  }
}

uint64_t BuildFingerprint(const api::CoresetSpec& spec, const Matrix& points) {
  const auto result = api::Build(spec, points);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.ok() ? service::FingerprintCoreset(result->coreset) : 0;
}

api::CoresetSpec GoldenSpec(const api::FastOptions& options) {
  api::CoresetSpec spec;
  spec.method = "fast_coreset";
  spec.k = 60;
  spec.m = 400;
  spec.seed = 301;
  spec.options = options;
  return spec;
}

TEST(GoldenFingerprintTest, FastCoresetBuildsMatchPinnedFingerprints) {
  const Matrix points = TestPoints(16, 300);  // JL-projected before seeding.
  // Every row appears four times, the copies 1500 rows apart.
  std::vector<size_t> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) rows[i] = i % 1500;
  const Matrix duplicated = points.SelectRows(rows);
  const Matrix wide = TestPoints(40, 302);  // 80-bit child codes, no JL.
  Rng weight_rng(303);
  std::vector<double> weights(kRows);
  for (double& w : weights) w = weight_rng.NextDouble() + 0.1;

  api::FastOptions full_depth;
  full_depth.seeding.full_depth_tree = true;
  api::FastOptions shallow;
  shallow.seeding.max_depth = 3;  // Forces multi-point leaves.
  api::FastOptions no_jl;
  no_jl.use_jl = false;
  api::FastOptions greedy;
  greedy.seeder = api::FastSeeder::kTreeGreedy;

  ExpectGolden({
      {"adaptive", 0x632b72e78d522c6full,
       [&] { return BuildFingerprint(GoldenSpec({}), points); }},
      {"full_depth_tree", 0x632b72e78d522c6full,
       [&] { return BuildFingerprint(GoldenSpec(full_depth), points); }},
      {"max_depth_3", 0x105c980de19f07b2ull,
       [&] { return BuildFingerprint(GoldenSpec(shallow), points); }},
      {"duplicate_rows", 0xe67ffce4a5693454ull,
       [&] { return BuildFingerprint(GoldenSpec({}), duplicated); }},
      {"weighted", 0xf300b912837817deull,
       [&] {
         api::CoresetSpec spec = GoldenSpec({});
         spec.weights = weights;
         return BuildFingerprint(spec, points);
       }},
      {"z1", 0x2a732ef9b21b4f5dull,
       [&] {
         api::CoresetSpec spec = GoldenSpec({});
         spec.z = 1;
         return BuildFingerprint(spec, points);
       }},
      {"wide_no_jl", 0x7832fee58372355aull,
       [&] { return BuildFingerprint(GoldenSpec(no_jl), wide); }},
      {"tree_greedy", 0xacf19489729c7a64ull,
       [&] { return BuildFingerprint(GoldenSpec(greedy), points); }},
      {"tree_greedy_duplicate_rows", 0x89aa551bfcf94847ull,
       [&] { return BuildFingerprint(GoldenSpec(greedy), duplicated); }},
      {"tree_greedy_weighted_z1", 0x237ea0fd4210cddcull,
       [&] {
         api::CoresetSpec spec = GoldenSpec(greedy);
         spec.weights = weights;
         spec.z = 1;
         return BuildFingerprint(spec, points);
       }},
  });
}

TEST(GoldenFingerprintTest, SeedersMatchPinnedFingerprints) {
  const Matrix points = TestPoints(6, 304);
  std::vector<size_t> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) rows[i] = i % 700;
  const Matrix duplicated = points.SelectRows(rows);

  Rng weight_rng(306);
  std::vector<double> weights(kRows);
  for (double& w : weights) w = weight_rng.NextDouble() + 0.1;

  const auto seeding = [](const Matrix& data,
                          const FastKMeansPlusPlusOptions& options, size_t k,
                          const std::vector<double>& point_weights = {}) {
    Rng rng(305);
    const Clustering clustering =
        FastKMeansPlusPlus(data, point_weights, k, options, rng);
    return FingerprintClustering(clustering, rng);
  };
  FastKMeansPlusPlusOptions plain;
  FastKMeansPlusPlusOptions no_rejection;
  no_rejection.rejection_sampling = false;
  FastKMeansPlusPlusOptions full_depth;
  full_depth.full_depth_tree = true;
  full_depth.max_depth = 20;
  FastKMeansPlusPlusOptions shallow;
  shallow.max_depth = 2;
  FastKMeansPlusPlusOptions median;
  median.z = 1;
  // The rejection loop's edge budgets: no retry (the same draws as
  // rejection_sampling = false) and a single retry.
  FastKMeansPlusPlusOptions no_retries;
  no_retries.max_rejections = 0;
  FastKMeansPlusPlusOptions one_retry;
  one_retry.max_rejections = 1;

  ExpectGolden({
      {"fast_kmpp", 0x418092fd68bca670ull,
       [&] { return seeding(points, plain, 40); }},
      {"fast_kmpp_no_rejection", 0x894182a43fb33d4aull,
       [&] { return seeding(points, no_rejection, 40); }},
      {"fast_kmpp_full_depth_20", 0x418092fd68bca670ull,
       [&] { return seeding(points, full_depth, 40); }},
      {"fast_kmpp_max_depth_2", 0x75e2aed0e785d11cull,
       [&] { return seeding(points, shallow, 40); }},
      {"fast_kmpp_z1_duplicates", 0xb48b06c4bba7d256ull,
       [&] { return seeding(duplicated, median, 40); }},
      {"fast_kmpp_k_exceeds_distinct", 0xac068fc0a12ad176ull,
       [&] { return seeding(duplicated, plain, 900); }},
      {"fast_kmpp_max_rejections_0", 0x894182a43fb33d4aull,
       [&] { return seeding(points, no_retries, 40); }},
      {"fast_kmpp_max_rejections_1", 0x487522a5a97fd4f8ull,
       [&] { return seeding(points, one_retry, 40); }},
      {"fast_kmpp_weighted", 0x55e7aa115f706bf0ull,
       [&] { return seeding(points, plain, 40, weights); }},
      {"fast_kmpp_weighted_z1", 0x7445aba3654e9c8dull,
       [&] { return seeding(points, median, 40, weights); }},
  });
}

// The k-means++ constants below were captured from the seeder that
// recomputed every point's distance to every new center, before the
// triangle-inequality skip. The skip must leave every stored distance,
// assignment and draw unchanged, so none of them may move.
Matrix Scaled(Matrix points, double scale) {
  for (double& x : points.data()) x *= scale;
  return points;
}

TEST(GoldenFingerprintTest, KMeansPlusPlusMatchesPinnedFingerprints) {
  const Matrix points = TestPoints(6, 310);
  // Every row appears five times, the copies 1200 rows apart.
  std::vector<size_t> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) rows[i] = i % 1200;
  const Matrix duplicated = points.SelectRows(rows);
  // Squared distances within a mixture component stay finite; those
  // across components overflow to inf.
  const Matrix huge = Scaled(points, 1e153);
  // Every squared distance is subnormal.
  const Matrix tiny = Scaled(points, 1e-160);
  Rng weight_rng(311);
  std::vector<double> weights(kRows);
  for (double& w : weights) w = weight_rng.NextDouble() + 0.1;

  const auto seeding = [](const Matrix& data, size_t k, int z,
                          const std::vector<double>& point_weights = {}) {
    Rng rng(312);
    const Clustering clustering =
        KMeansPlusPlus(data, point_weights, k, z, rng);
    return FingerprintClustering(clustering, rng);
  };
  ExpectGolden({
      {"kmpp_z2", 0xb506c9244ed74935ull,
       [&] { return seeding(points, 100, 2); }},
      {"kmpp_z1", 0x97cd6402956cb879ull,
       [&] { return seeding(points, 100, 1); }},
      {"kmpp_weighted", 0xe45931c43c77faf5ull,
       [&] { return seeding(points, 100, 2, weights); }},
      {"kmpp_weighted_z1", 0x5c29b69ae2e8722aull,
       [&] { return seeding(points, 100, 1, weights); }},
      {"kmpp_k_exceeds_distinct", 0xee01368b06d6b311ull,
       [&] { return seeding(duplicated, 1500, 2); }},
      {"kmpp_overflow_scale", 0xad0b4bc2627a74f7ull,
       [&] { return seeding(huge, 100, 2); }},
      {"kmpp_underflow_scale", 0x4e8e8777fdd9dd84ull,
       [&] { return seeding(tiny, 100, 2); }},
  });
}

TEST(GoldenFingerprintTest, KMeansPlusPlusSeededBuildsMatchPinnedFingerprints) {
  const Matrix points = TestPoints(16, 300);
  const auto build = [&](const char* method) {
    api::CoresetSpec spec;
    spec.method = method;
    spec.k = 60;
    spec.m = 400;
    spec.seed = 314;
    return BuildFingerprint(spec, points);
  };
  ExpectGolden({
      {"sensitivity", 0xee50fb41546b866full,
       [&] { return build("sensitivity"); }},
      {"welterweight", 0x8d18260fcca34b5eull,
       [&] { return build("welterweight"); }},
      {"group_sampling", 0xf36ad50b0d167d92ull,
       [&] { return build("group_sampling"); }},
      {"stream_km", 0x0c6c09bf96172bf7ull, [&] { return build("stream_km"); }},
  });
}

// Canonical tree structure, independent of node ids: a preorder walk
// (children in order) hashing each node's level, child count and leaf
// points.
uint64_t FingerprintTree(const Quadtree& tree) {
  uint64_t state = service::kFnv64Offset;
  std::vector<int32_t> stack = {tree.root()};
  while (!stack.empty()) {
    const int32_t v = stack.back();
    stack.pop_back();
    const auto children = tree.children(v);
    state = service::Fnv1a64(static_cast<uint64_t>(tree.level(v)), state);
    state = service::Fnv1a64(static_cast<uint64_t>(children.size()), state);
    for (uint32_t p : tree.points(v)) state = service::Fnv1a64(p, state);
    for (int32_t child : std::views::reverse(children)) {
      stack.push_back(child);
    }
  }
  return state;
}

TEST(GoldenFingerprintTest, QuadtreeStructureMatchesPinnedFingerprints) {
  const Matrix points = TestPoints(6, 304);
  std::vector<size_t> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) rows[i] = i % 700;
  const Matrix duplicated = points.SelectRows(rows);
  const auto structure = [](const Matrix& data, QuadtreeOptions options) {
    Rng rng(308);
    const Quadtree tree(data, rng, options);
    return FingerprintTree(tree);
  };
  ExpectGolden({
      {"adaptive", 0x9f1bdd6f444bf308ull,
       [&] { return structure(points, {60, false}); }},
      {"duplicate_rows", 0x2219a7182b50a8b1ull,
       [&] { return structure(duplicated, {30, false}); }},
      {"full_depth_12", 0x855c1af2dd69fd63ull,
       [&] { return structure(points, {12, true}); }},
      {"max_depth_3", 0x5cb041b5b7bfbc52ull,
       [&] { return structure(duplicated, {3, false}); }},
  });
}

}  // namespace
}  // namespace fastcoreset
