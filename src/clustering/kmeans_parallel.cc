#include "src/clustering/kmeans_parallel.h"

#include <cmath>
#include <utility>

#include "src/clustering/cost.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

Clustering KMeansParallel(const Matrix& points,
                          const std::vector<double>& weights, size_t k,
                          const KMeansParallelOptions& options, Rng& rng) {
  const size_t n = points.rows();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK(options.z == 1 || options.z == 2);
  FC_CHECK(weights.empty() || weights.size() == n);
  const size_t l = options.oversampling == 0 ? 2 * k : options.oversampling;

  // Initial candidate: one weight-proportional draw.
  std::vector<size_t> candidates;
  candidates.push_back(weights.empty() ? rng.NextIndex(n)
                                       : rng.SampleDiscrete(weights));

  // min_pow[i] = dist^z to the nearest candidate so far, with the
  // weighted mass w_i * min_pow[i] mirrored in a Fenwick-backed
  // distribution: each batch update only touches the slots it improves,
  // and the per-round total comes from the tree in O(log n) instead of an
  // O(n) re-reduce. Updates are collected per chunk and applied on this
  // thread in chunk order, keeping the tree thread-invariant.
  std::vector<double> min_pow(n);
  FenwickTree mass(n);
  // Exact count of slots with positive mass. The tree total accumulates
  // signed update deltas, so "all points covered" can surface there as a
  // tiny residue instead of 0.0 — the count keeps the early break exact,
  // like the old ParallelReduce total was. Masses only ever shrink
  // (min_pow is monotone, weights fixed), so only positive→zero
  // transitions need tracking.
  size_t positive_slots = 0;
  std::vector<std::vector<std::pair<size_t, double>>> improved(
      ParallelChunkCount(n));
  auto update_from = [&](const std::vector<size_t>& batch) {
    ParallelForChunks(n, [&](size_t chunk, size_t begin, size_t end) {
      auto& changes = improved[chunk];
      changes.clear();
      for (size_t i = begin; i < end; ++i) {
        double best = min_pow[i];
        for (size_t candidate : batch) {
          const double pow_dist =
              DistPow(points.Row(i), points.Row(candidate), options.z);
          if (pow_dist < best) best = pow_dist;
        }
        if (best < min_pow[i]) {
          min_pow[i] = best;
          changes.emplace_back(i, WeightAt(weights, i) * best);
        }
      }
    });
    for (const auto& changes : improved) {
      for (const auto& [i, value] : changes) {
        if (mass.Get(i) > 0.0 && value <= 0.0) --positive_slots;
        mass.Set(i, value);
      }
    }
  };
  {
    const auto row = points.Row(candidates[0]);
    std::vector<double> initial(n);
    ParallelFor(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        min_pow[i] = DistPow(points.Row(i), row, options.z);
        initial[i] = WeightAt(weights, i) * min_pow[i];
      }
    });
    mass.Assign(initial);
    for (double value : initial) positive_slots += value > 0.0;
  }

  for (int round = 0; round < options.rounds; ++round) {
    const double total = mass.Total();
    if (positive_slots == 0 || total <= 0.0) {
      break;  // All points covered exactly.
    }
    const double scale = static_cast<double>(l) / total;
    std::vector<size_t> fresh;
    for (size_t i = 0; i < n; ++i) {
      const double probability = WeightAt(weights, i) * min_pow[i] * scale;
      if (probability >= 1.0 || rng.NextDouble() < probability) {
        fresh.push_back(i);
      }
    }
    if (fresh.empty()) continue;
    candidates.insert(candidates.end(), fresh.begin(), fresh.end());
    update_from(fresh);
  }

  // Weight candidates by the mass they attract, then recluster to k.
  Matrix candidate_points(candidates.size(), points.cols());
  for (size_t c = 0; c < candidates.size(); ++c) {
    candidate_points.CopyRowFrom(points, candidates[c], c);
  }
  std::vector<size_t> owner;
  std::vector<double> owner_sq;
  AssignToNearest(points, candidate_points, &owner, &owner_sq);
  std::vector<double> candidate_weight(candidates.size(), 0.0);
  for (size_t i = 0; i < n; ++i) {
    candidate_weight[owner[i]] += WeightAt(weights, i);
  }

  const Clustering reduced = KMeansPlusPlus(candidate_points,
                                            candidate_weight, k, options.z,
                                            rng);

  Clustering result;
  result.z = options.z;
  result.centers = reduced.centers;
  RefreshAssignment(points, weights, &result);
  return result;
}

}  // namespace fastcoreset
