#include "src/clustering/lloyd.h"

#include <algorithm>

#include "src/clustering/cost.h"
#include "src/common/parallel.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

namespace {

// Weighted per-cluster sums and weights for the centroid step. Chunked
// over points with per-chunk scratch merged in chunk order, so the result
// is bit-identical at any thread count; falls back to one serial pass
// when the scratch (chunks * k * d doubles) would outweigh the win.
void AccumulateClusters(const Matrix& points,
                        const std::vector<double>& weights,
                        const std::vector<size_t>& assignment, size_t k,
                        Matrix* sums, std::vector<double>* cluster_weight) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t chunks = ParallelChunkCount(n);
  constexpr size_t kMaxScratchDoubles = size_t{1} << 22;  // 32 MiB.
  if (chunks <= 1 || chunks * (k * d + k) > kMaxScratchDoubles) {
    for (size_t i = 0; i < n; ++i) {
      const double w = WeightAt(weights, i);
      const size_t c = assignment[i];
      (*cluster_weight)[c] += w;
      const auto row = points.Row(i);
      auto sum = sums->Row(c);
      for (size_t j = 0; j < d; ++j) sum[j] += w * row[j];
    }
    return;
  }
  std::vector<double> sum_scratch(chunks * k * d, 0.0);
  std::vector<double> weight_scratch(chunks * k, 0.0);
  ParallelForChunks(n, [&](size_t chunk, size_t begin, size_t end) {
    double* chunk_sums = sum_scratch.data() + chunk * k * d;
    double* chunk_weights = weight_scratch.data() + chunk * k;
    for (size_t i = begin; i < end; ++i) {
      const double w = WeightAt(weights, i);
      const size_t c = assignment[i];
      chunk_weights[c] += w;
      const auto row = points.Row(i);
      double* sum = chunk_sums + c * d;
      for (size_t j = 0; j < d; ++j) sum[j] += w * row[j];
    }
  });
  for (size_t chunk = 0; chunk < chunks; ++chunk) {  // Fixed chunk order.
    const double* chunk_sums = sum_scratch.data() + chunk * k * d;
    const double* chunk_weights = weight_scratch.data() + chunk * k;
    for (size_t c = 0; c < k; ++c) {
      (*cluster_weight)[c] += chunk_weights[c];
      auto sum = sums->Row(c);
      for (size_t j = 0; j < d; ++j) sum[j] += chunk_sums[c * d + j];
    }
  }
}

}  // namespace

Clustering LloydKMeans(const Matrix& points,
                       const std::vector<double>& weights,
                       const Matrix& initial_centers,
                       const LloydOptions& options) {
  const size_t n = points.rows();
  const size_t k = initial_centers.rows();
  const size_t d = points.cols();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK_EQ(initial_centers.cols(), d);
  FC_CHECK(weights.empty() || weights.size() == n);

  Clustering result;
  result.z = 2;
  result.centers = initial_centers;
  RefreshAssignment(points, weights, &result);

  double previous_cost = result.total_cost;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    // Centroid step: weighted mean per cluster.
    Matrix sums(k, d);
    std::vector<double> cluster_weight(k, 0.0);
    AccumulateClusters(points, weights, result.assignment, k, &sums,
                       &cluster_weight);
    for (size_t c = 0; c < k; ++c) {
      if (cluster_weight[c] > 0.0) {
        auto sum = sums.Row(c);
        auto center = result.centers.Row(c);
        const double inv = 1.0 / cluster_weight[c];
        for (size_t j = 0; j < d; ++j) center[j] = sum[j] * inv;
      } else {
        // Empty cluster: reseed at the currently most expensive point,
        // which is the standard practical fix and strictly lowers cost.
        size_t worst = 0;
        double worst_cost = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const double cost = WeightAt(weights, i) * result.point_costs[i];
          if (cost > worst_cost) {
            worst_cost = cost;
            worst = i;
          }
        }
        result.centers.CopyRowFrom(points, worst, c);
      }
    }

    RefreshAssignment(points, weights, &result);
    const double improvement =
        previous_cost > 0.0
            ? (previous_cost - result.total_cost) / previous_cost
            : 0.0;
    previous_cost = result.total_cost;
    if (improvement >= 0.0 && improvement < options.relative_tolerance) break;
  }
  return result;
}

}  // namespace fastcoreset
