// Substrate + sampling bench: persistent-pool dispatch latency vs the
// PR 2 spawn-per-call substrate (reproduced inline as the baseline), and
// k-means++ seeding end-to-end against a legacy replica that pays the
// spawn-per-call dispatch plus the O(n) mass rebuild + O(n) re-sum per
// center draw. Emits BENCH_parallel.json; the CI perf gate compares its
// "gate" ratios against bench/baselines/BENCH_parallel_baseline.json, so
// the numbers that matter are machine-relative speedups, not absolute ms.
//
// Honours FC_RUNS (repetitions; best-of is reported), FC_SCALE (row
// multiplier) and FC_BENCH_THREADS (default 4) for the threaded columns.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/data/generators.h"
#include "src/geometry/distance.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {
namespace {

// The PR 2 substrate, reproduced verbatim as the dispatch baseline: same
// chunk plan, but every call constructs and joins its worker threads.
constexpr size_t kChunkSize = 4096;
constexpr size_t kMaxChunks = 1024;

void SpawnPerCallFor(size_t n, size_t workers,
                     const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  size_t chunks = 1, chunk_size = n;
  if (n >= kChunkSize) {
    chunks = std::min(kMaxChunks, (n + kChunkSize - 1) / kChunkSize);
    chunk_size = (n + chunks - 1) / chunks;
  }
  workers = std::min(workers, chunks);
  std::atomic<size_t> next_chunk{0};
  auto run = [&] {
    for (size_t c = next_chunk.fetch_add(1); c < chunks;
         c = next_chunk.fetch_add(1)) {
      const size_t begin = c * chunk_size;
      const size_t end = std::min(n, begin + chunk_size);
      if (begin < end) body(begin, end);
    }
  };
  if (workers <= 1) {
    run();
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t t = 1; t < workers; ++t) threads.emplace_back(run);
  run();
  for (auto& thread : threads) thread.join();
}

double SpawnPerCallReduce(size_t n, size_t workers,
                          const std::function<double(size_t, size_t)>& body) {
  if (n == 0) return 0.0;
  std::vector<double> partials(ParallelChunkCount(n), 0.0);
  std::atomic<size_t> slot{0};
  SpawnPerCallFor(n, workers, [&](size_t begin, size_t end) {
    partials[slot.fetch_add(1)] = body(begin, end);
  });
  double total = 0.0;
  for (double partial : partials) total += partial;
  return total;
}

// The pre-PR 3 k-means++ inner loop: per center, a full O(n) mass
// rebuild through the spawn-per-call reduce plus SampleDiscrete's O(n)
// re-sum — ~2k spawn/join rounds and ~2 extra linear passes per seeding.
std::vector<size_t> LegacyKMeansPlusPlusSeed(const Matrix& points, size_t k,
                                             size_t workers, Rng& rng) {
  const size_t n = points.rows();
  std::vector<double> min_sq(n, 0.0), masses(n, 0.0);
  std::vector<size_t> centers;
  centers.push_back(rng.NextIndex(n));
  const auto first = points.Row(centers[0]);
  SpawnPerCallFor(n, workers, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      min_sq[i] = SquaredL2(points.Row(i), first);
    }
  });
  for (size_t c = 1; c < k; ++c) {
    const double total =
        SpawnPerCallReduce(n, workers, [&](size_t begin, size_t end) {
          double partial = 0.0;
          for (size_t i = begin; i < end; ++i) {
            masses[i] = min_sq[i];
            partial += masses[i];
          }
          return partial;
        });
    if (total <= 0.0) break;
    centers.push_back(rng.SampleDiscrete(masses));  // Re-sums all n.
    const auto center = points.Row(centers.back());
    SpawnPerCallFor(n, workers, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const double sq = SquaredL2(points.Row(i), center);
        if (sq < min_sq[i]) min_sq[i] = sq;
      }
    });
  }
  return centers;
}

// The current path: pool dispatch + incremental Fenwick sampling. Same
// shape as KMeansPlusPlus's hot loop, duplicated here so the bench pins
// the substrate difference, not unrelated seeder details.
std::vector<size_t> PoolKMeansPlusPlusSeed(const Matrix& points, size_t k,
                                           Rng& rng) {
  const size_t n = points.rows();
  std::vector<double> min_sq(n, 0.0);
  std::vector<size_t> centers;
  centers.push_back(rng.NextIndex(n));
  const auto first = points.Row(centers[0]);
  ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      min_sq[i] = SquaredL2(points.Row(i), first);
    }
  });
  FenwickTree masses(size_t{0});
  {
    std::vector<double> initial(min_sq);
    masses.Assign(initial);
  }
  std::vector<std::vector<std::pair<size_t, double>>> improved(
      ParallelChunkCount(n));
  for (size_t c = 1; c < k; ++c) {
    if (masses.Total() <= 0.0) break;
    centers.push_back(masses.Sample(rng));
    const auto center = points.Row(centers.back());
    ParallelForChunks(n, [&](size_t chunk, size_t begin, size_t end) {
      auto& batch = improved[chunk];
      batch.clear();
      for (size_t i = begin; i < end; ++i) {
        const double sq = SquaredL2(points.Row(i), center);
        if (sq < min_sq[i]) {
          min_sq[i] = sq;
          batch.emplace_back(i, sq);
        }
      }
    });
    for (const auto& batch : improved) {
      for (const auto& [i, mass] : batch) masses.Set(i, mass);
    }
  }
  return centers;
}

template <typename Fn>
double BestOfRuns(int runs, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < runs; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.Millis());
  }
  return best;
}

struct Results {
  size_t threads = 0;
  // Dispatch latency, µs per call, across kDispatchCalls trivial bodies.
  double spawn_dispatch_us = 0.0;
  double pool_dispatch_us = 0.0;
  // Seeding end-to-end, ms.
  size_t seed_n = 0, seed_d = 0, seed_k = 0;
  double legacy_seed_1t_ms = 0.0;
  double pool_seed_1t_ms = 0.0;
  double legacy_seed_mt_ms = 0.0;
  double pool_seed_mt_ms = 0.0;
  // Discrete sampling, µs per draw over seed_n slots.
  double linear_sample_us = 0.0;
  double fenwick_sample_us = 0.0;
};

void WriteJson(const Results& r, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"parallel\",\n  \"threads\": %zu,\n",
               r.threads);
  std::fprintf(out,
               "  \"dispatch\": {\"spawn_us_per_call\": %.3f, "
               "\"pool_us_per_call\": %.3f},\n",
               r.spawn_dispatch_us, r.pool_dispatch_us);
  std::fprintf(out,
               "  \"seeding\": {\"n\": %zu, \"d\": %zu, \"k\": %zu, "
               "\"legacy_1t_ms\": %.3f, \"pool_1t_ms\": %.3f, "
               "\"legacy_%zut_ms\": %.3f, \"pool_%zut_ms\": %.3f},\n",
               r.seed_n, r.seed_d, r.seed_k, r.legacy_seed_1t_ms,
               r.pool_seed_1t_ms, r.threads, r.legacy_seed_mt_ms, r.threads,
               r.pool_seed_mt_ms);
  std::fprintf(out,
               "  \"sampling\": {\"n\": %zu, \"linear_us_per_draw\": %.4f, "
               "\"fenwick_us_per_draw\": %.4f},\n",
               r.seed_n, r.linear_sample_us, r.fenwick_sample_us);
  // Machine-relative ratios: this is what the CI gate compares, so a
  // slower runner does not fail the build — only a regressed ratio does.
  std::fprintf(out,
               "  \"gate\": {\n"
               "    \"dispatch_speedup_pool_vs_spawn\": %.3f,\n"
               "    \"seeding_speedup_1t\": %.3f,\n"
               "    \"seeding_speedup_mt\": %.3f,\n"
               "    \"sampling_speedup_fenwick_vs_linear\": %.3f\n"
               "  }\n}\n",
               r.spawn_dispatch_us / r.pool_dispatch_us,
               r.legacy_seed_1t_ms / r.pool_seed_1t_ms,
               r.legacy_seed_mt_ms / r.pool_seed_mt_ms,
               r.linear_sample_us / r.fenwick_sample_us);
  std::fclose(out);
}

}  // namespace
}  // namespace fastcoreset

int main() {
  using namespace fastcoreset;
  const size_t threads =
      std::max<size_t>(2, static_cast<size_t>(EnvInt("FC_BENCH_THREADS", 4)));
  const int runs = std::max(1, bench::Runs());
  const double scale = bench::Scale();

  bench::Banner("Parallel substrate bench — pool dispatch + O(log n) draws",
                "persistent pool + incremental sampling beat spawn-per-call "
                "+ O(n) re-sum per center");

  Results results;
  results.threads = threads;

  // --- Dispatch latency: many calls over a just-past-cutoff range with a
  // near-trivial body, so per-call overhead dominates. The pool pays a
  // condvar wake; the baseline constructs threads every call.
  {
    const size_t n = 32768;
    const int calls = 200;
    std::vector<double> sink(n, 1.0);
    auto body = [&](size_t begin, size_t end) {
      double acc = 0.0;
      for (size_t i = begin; i < end; ++i) acc += sink[i];
      sink[begin] = acc;
    };
    const double spawn_ms = BestOfRuns(runs, [&] {
      for (int c = 0; c < calls; ++c) SpawnPerCallFor(n, threads, body);
    });
    results.spawn_dispatch_us = 1000.0 * spawn_ms / calls;
    SetNumThreads(threads);
    const double pool_ms = BestOfRuns(runs, [&] {
      for (int c = 0; c < calls; ++c) ParallelFor(n, body);
    });
    results.pool_dispatch_us = 1000.0 * pool_ms / calls;
    ResetNumThreads();
  }

  // --- k-means++ seeding end-to-end: n points, k centers. The legacy
  // replica pays ~3 spawn-join rounds and ~2 extra O(n) passes per
  // center; the pool path pays condvar wakes and O(changed log n).
  {
    const size_t n =
        std::max<size_t>(5000, static_cast<size_t>(40000 * scale));
    const size_t d = 16, k = 200;
    Rng data_rng(20240715);
    const Matrix points =
        GenerateGaussianMixture(n, d, /*kappa=*/32, /*gamma=*/0.5, data_rng);
    results.seed_n = points.rows();
    results.seed_d = d;
    results.seed_k = k;

    Rng rng(1);
    results.legacy_seed_1t_ms = BestOfRuns(runs, [&] {
      LegacyKMeansPlusPlusSeed(points, k, 1, rng);
    });
    SetNumThreads(1);
    results.pool_seed_1t_ms = BestOfRuns(runs, [&] {
      PoolKMeansPlusPlusSeed(points, k, rng);
    });
    ResetNumThreads();
    results.legacy_seed_mt_ms = BestOfRuns(runs, [&] {
      LegacyKMeansPlusPlusSeed(points, k, threads, rng);
    });
    SetNumThreads(threads);
    results.pool_seed_mt_ms = BestOfRuns(runs, [&] {
      PoolKMeansPlusPlusSeed(points, k, rng);
    });
    ResetNumThreads();

    // --- Draw latency on the same scale: O(n) linear scan with re-sum
    // vs O(log n) Fenwick draw.
    std::vector<double> weights(points.rows());
    Rng wrng(2);
    for (double& w : weights) w = wrng.NextDouble();
    const FenwickTree dist(weights);
    const int draws = 2000;
    Rng draw_rng(3);
    const double linear_ms = BestOfRuns(runs, [&] {
      size_t sink = 0;
      for (int i = 0; i < draws; ++i) {
        sink += draw_rng.SampleDiscrete(weights);
      }
      if (sink == size_t(-1)) std::printf("?");  // Defeat dead-code elim.
    });
    results.linear_sample_us = 1000.0 * linear_ms / draws;
    const double fenwick_ms = BestOfRuns(runs, [&] {
      size_t sink = 0;
      for (int i = 0; i < draws; ++i) sink += dist.Sample(draw_rng);
      if (sink == size_t(-1)) std::printf("?");
    });
    results.fenwick_sample_us = 1000.0 * fenwick_ms / draws;
  }

  std::printf("dispatch (T=%zu):   spawn %8.2f us/call   pool %8.2f us/call"
              "   speedup %.2fx\n",
              threads, results.spawn_dispatch_us, results.pool_dispatch_us,
              results.spawn_dispatch_us / results.pool_dispatch_us);
  std::printf("seeding n=%zu k=%zu (1t): legacy %8.2f ms   pool %8.2f ms"
              "   speedup %.2fx\n",
              results.seed_n, results.seed_k, results.legacy_seed_1t_ms,
              results.pool_seed_1t_ms,
              results.legacy_seed_1t_ms / results.pool_seed_1t_ms);
  std::printf("seeding n=%zu k=%zu (%zut): legacy %8.2f ms   pool %8.2f ms"
              "   speedup %.2fx\n",
              results.seed_n, results.seed_k, results.threads,
              results.legacy_seed_mt_ms, results.pool_seed_mt_ms,
              results.legacy_seed_mt_ms / results.pool_seed_mt_ms);
  std::printf("sampling n=%zu:     linear %8.3f us/draw  fenwick %8.3f "
              "us/draw  speedup %.2fx\n",
              results.seed_n, results.linear_sample_us,
              results.fenwick_sample_us,
              results.linear_sample_us / results.fenwick_sample_us);

  WriteJson(results, "BENCH_parallel.json");
  std::printf("\nwrote BENCH_parallel.json (threads=%zu, runs=%d)\n",
              threads, runs);
  return 0;
}
