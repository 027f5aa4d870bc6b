// Google-benchmark microbenches for the hot primitives: distance kernels,
// JL projection, quadtree construction, Fenwick sampling, k-means++
// seeding and sensitivity computation. These are the terms in the paper's
// Õ(nd) accounting.

#include <vector>

#include <benchmark/benchmark.h>

#include "src/clustering/fast_kmeans_plus_plus.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/common/fenwick_tree.h"
#include "src/common/rng.h"
#include "src/core/importance.h"
#include "src/geometry/distance.h"
#include "src/geometry/jl_projection.h"
#include "src/geometry/quadtree.h"

namespace fastcoreset {
namespace {

Matrix RandomPoints(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix points(n, d);
  for (double& x : points.data()) x = rng.Uniform(0.0, 100.0);
  return points;
}

void BM_SquaredL2(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(2, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(points.Row(0), points.Row(1)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d));
}
BENCHMARK(BM_SquaredL2)->Arg(14)->Arg(50)->Arg(784);

void BM_JlProject(benchmark::State& state) {
  const size_t n = 2000, d = 784;
  const size_t target = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(n, d, 2);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JlProject(points, target, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_JlProject)->Arg(8)->Arg(32);

void BM_QuadtreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(n, 8, 4);
  for (auto _ : state) {
    Rng rng(5);
    Quadtree tree(points, rng);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_QuadtreeBuild)->Arg(1000)->Arg(10000)->Arg(50000);

// The Fenwick draws run over one slot per point: n = 200k is the
// end-to-end benchmark's build_fast shape, a tree well beyond L2.
constexpr size_t kFenwickSlots = 200000;

FenwickTree RandomFenwick(Rng& rng) {
  std::vector<double> values(kFenwickSlots);
  for (double& v : values) v = rng.NextDouble();
  return FenwickTree(values);
}

void BM_FenwickSample(benchmark::State& state) {
  Rng rng(6);
  const FenwickTree tree = RandomFenwick(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FenwickSample);

// The same draws resolved FenwickTree::kBatch at a time: one item is one
// draw, so items/s compares directly with BM_FenwickSample.
void BM_FenwickSampleBatch(benchmark::State& state) {
  Rng rng(6);
  const FenwickTree tree = RandomFenwick(rng);
  const double total = tree.Total();
  std::vector<double> targets(FenwickTree::kBatch);
  std::vector<size_t> slots(FenwickTree::kBatch);
  for (auto _ : state) {
    for (double& target : targets) target = rng.NextDouble() * total;
    tree.UpperBoundBatch(targets, slots);
    benchmark::DoNotOptimize(slots.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(FenwickTree::kBatch));
}
BENCHMARK(BM_FenwickSampleBatch);

void BM_KMeansPlusPlus(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(10000, 20, 7);
  for (auto _ : state) {
    Rng rng(8);
    benchmark::DoNotOptimize(
        KMeansPlusPlus(points, {}, k, 2, rng).total_cost);
  }
}
BENCHMARK(BM_KMeansPlusPlus)->Arg(10)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_FastKMeansPlusPlus(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(10000, 20, 9);
  for (auto _ : state) {
    Rng rng(10);
    FastKMeansPlusPlusOptions options;
    benchmark::DoNotOptimize(
        FastKMeansPlusPlus(points, {}, k, options, rng).total_cost);
  }
}
BENCHMARK(BM_FastKMeansPlusPlus)->Arg(10)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_ComputeSensitivities(benchmark::State& state) {
  const Matrix points = RandomPoints(50000, 20, 11);
  Rng rng(12);
  const Clustering solution = KMeansPlusPlus(points, {}, 50, 2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSensitivities(
        points, {}, solution.assignment, solution.centers, 2));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 50000);
}
BENCHMARK(BM_ComputeSensitivities)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fastcoreset

BENCHMARK_MAIN();
