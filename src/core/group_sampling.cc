#include "src/core/group_sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "src/clustering/kmeans_plus_plus.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

namespace {

/// Draws `budget` points from `pool` proportional to `mass` (parallel to
/// pool), merging duplicates. Each draw of pool[r] carries weight
/// w_p * total_mass / (budget * mass[r]) — the unbiased inverse-probability
/// weight. Appends to the coreset.
void SampleFromPool(const Matrix& points, const std::vector<double>& weights,
                    const std::vector<size_t>& pool,
                    const std::vector<double>& mass, size_t budget, Rng& rng,
                    Coreset* coreset) {
  if (pool.empty() || budget == 0) return;
  double total = 0.0;
  for (double x : mass) total += x;
  if (total <= 0.0) return;

  std::map<size_t, size_t> hits;  // pool position -> draw count.
  for (size_t draw = 0; draw < budget; ++draw) {
    double target = rng.NextDouble() * total;
    size_t position = pool.size() - 1;
    for (size_t r = 0; r < pool.size(); ++r) {
      target -= mass[r];
      if (target <= 0.0) {
        position = r;
        break;
      }
    }
    ++hits[position];
  }

  Matrix rows(hits.size(), points.cols());
  size_t out = 0;
  for (const auto& [position, count] : hits) {
    const size_t idx = pool[position];
    rows.CopyRowFrom(points, idx, out++);
    coreset->indices.push_back(idx);
    coreset->weights.push_back(static_cast<double>(count) *
                               WeightAt(weights, idx) * total /
                               (static_cast<double>(budget) *
                                mass[position]));
  }
  coreset->points.AppendRows(rows);
}

/// A whole log2 value as a ring index, clamped in double before the cast:
/// for a tiny eps the ring factors under/overflow and their log2 is -inf
/// or +inf.
int RingIndex(double j) {
  constexpr double kLowest = std::numeric_limits<int>::min();
  constexpr double kHighest = std::numeric_limits<int>::max();
  return static_cast<int>(std::clamp(j, kLowest, kHighest));
}

}  // namespace

Coreset GroupSamplingCoreset(const Matrix& points,
                             const std::vector<double>& weights, size_t k,
                             size_t m, int z,
                             const GroupSamplingOptions& options, Rng& rng,
                             WorkCounters* work) {
  const Clustering solution = KMeansPlusPlus(points, weights, k, z, rng, work);
  return GroupSamplingFromSolution(points, weights, solution, m, z, options,
                                   rng);
}

Coreset GroupSamplingFromSolution(const Matrix& points,
                                  const std::vector<double>& weights,
                                  const Clustering& solution, size_t m, int z,
                                  const GroupSamplingOptions& options,
                                  Rng& rng) {
  const size_t n = points.rows();
  const size_t clusters = solution.centers.rows();
  FC_CHECK_EQ(solution.assignment.size(), n);
  FC_CHECK_GT(m, 0u);
  FC_CHECK(z == 1 || z == 2);
  FC_CHECK_GT(options.eps, 0.0);
  FC_CHECK_LT(options.eps, 8.0);

  // Per-cluster statistics under the provided assignment.
  std::vector<double> cluster_cost(clusters, 0.0);
  std::vector<double> cluster_weight(clusters, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double w = WeightAt(weights, i);
    cluster_cost[solution.assignment[i]] += w * solution.point_costs[i];
    cluster_weight[solution.assignment[i]] += w;
  }

  const double close_factor = std::pow(options.eps / 8.0, z);
  const double outer_factor = std::pow(8.0 / options.eps, z);
  const int j_min = RingIndex(std::floor(std::log2(close_factor)));
  const int j_max = RingIndex(std::ceil(std::log2(outer_factor)));

  // Partition points: close -> per-cluster representative; outer -> one
  // importance pool; middle -> per-ring pools. Pool masses are
  // *cluster-normalized* costs w_p cost(p) / cost(C_p): within a ring a
  // cluster's points have comparable masses (the group-sampling
  // homogeneity), and across clusters every cluster contributes mass
  // proportional to the *fraction* of its own cost in the ring — so a
  // cheap-but-important cluster (e.g. a tight far-away outlier cluster)
  // still receives its fair share of the sampling budget.
  std::vector<double> close_weight(clusters, 0.0);
  std::vector<size_t> outer_pool;
  std::vector<double> outer_mass;
  double outer_mass_total = 0.0;
  std::map<int, std::vector<size_t>> rings;
  for (size_t i = 0; i < n; ++i) {
    const size_t c = solution.assignment[i];
    const double w = WeightAt(weights, i);
    const double avg =
        cluster_weight[c] > 0.0 ? cluster_cost[c] / cluster_weight[c] : 0.0;
    const double cost = solution.point_costs[i];
    if (avg <= 0.0 || cost <= close_factor * avg) {
      close_weight[c] += w;
      continue;
    }
    if (cost >= outer_factor * avg) {
      outer_pool.push_back(i);
      outer_mass.push_back(w * cost / cluster_cost[c]);
      outer_mass_total += outer_mass.back();
      continue;
    }
    const double j = std::floor(std::log2(cost / avg));
    rings[static_cast<int>(std::clamp<double>(j, j_min, j_max))].push_back(i);
  }

  Coreset coreset;
  coreset.points = Matrix(0, points.cols());

  // Close points: one synthetic representative per cluster at the center.
  {
    Matrix reps(0, points.cols());
    for (size_t c = 0; c < clusters; ++c) {
      if (close_weight[c] <= 0.0) continue;
      Matrix one(1, points.cols());
      one.CopyRowFrom(solution.centers, c, 0);
      reps.AppendRows(one);
      coreset.indices.push_back(Coreset::kSyntheticIndex);
      coreset.weights.push_back(close_weight[c]);
    }
    coreset.points.AppendRows(reps);
  }

  // Budget split proportional to normalized pool mass (each nonempty pool
  // gets at least one draw).
  std::vector<double> ring_mass_total;
  std::vector<std::vector<double>> ring_mass;
  std::vector<const std::vector<size_t>*> ring_pools;
  for (const auto& [j, pool] : rings) {
    (void)j;
    std::vector<double> mass;
    mass.reserve(pool.size());
    double total = 0.0;
    for (size_t idx : pool) {
      const size_t c = solution.assignment[idx];
      mass.push_back(WeightAt(weights, idx) * solution.point_costs[idx] /
                     cluster_cost[c]);
      total += mass.back();
    }
    ring_mass.push_back(std::move(mass));
    ring_mass_total.push_back(total);
    ring_pools.push_back(&pool);
  }
  double sampled_mass_total = outer_mass_total;
  for (double rm : ring_mass_total) sampled_mass_total += rm;

  if (sampled_mass_total > 0.0) {
    auto budget_for = [&](double mass_share) {
      return std::max<size_t>(
          1, static_cast<size_t>(std::llround(
                 static_cast<double>(m) * mass_share / sampled_mass_total)));
    };
    if (!outer_pool.empty()) {
      SampleFromPool(points, weights, outer_pool, outer_mass,
                     budget_for(outer_mass_total), rng, &coreset);
    }
    for (size_t g = 0; g < ring_pools.size(); ++g) {
      SampleFromPool(points, weights, *ring_pools[g], ring_mass[g],
                     budget_for(ring_mass_total[g]), rng, &coreset);
    }
  }
  return coreset;
}

}  // namespace fastcoreset
