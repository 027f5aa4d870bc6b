#include "src/clustering/kmedian.h"

#include <cmath>

#include "src/clustering/cost.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

std::vector<double> GeometricMedian(const Matrix& points,
                                    const std::vector<double>& weights,
                                    const std::vector<size_t>& subset,
                                    int max_iters, double tol) {
  FC_CHECK(!subset.empty());
  const size_t d = points.cols();

  // Start from the weighted mean.
  std::vector<double> median(d, 0.0);
  double total_weight = 0.0;
  for (size_t idx : subset) {
    const double w = WeightAt(weights, idx);
    total_weight += w;
    const auto row = points.Row(idx);
    for (size_t j = 0; j < d; ++j) median[j] += w * row[j];
  }
  FC_CHECK_GT(total_weight, 0.0);
  for (double& m : median) m /= total_weight;

  std::vector<double> next(d);
  for (int iter = 0; iter < max_iters; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    double denom = 0.0;
    for (size_t idx : subset) {
      const auto row = points.Row(idx);
      const double dist = L2(row, median);
      if (dist < 1e-12) continue;  // Weiszfeld skips coincident points.
      const double coeff = WeightAt(weights, idx) / dist;
      denom += coeff;
      for (size_t j = 0; j < d; ++j) next[j] += coeff * row[j];
    }
    if (denom <= 0.0) break;  // Median sits exactly on all points.
    double shift_sq = 0.0;
    for (size_t j = 0; j < d; ++j) {
      next[j] /= denom;
      const double delta = next[j] - median[j];
      shift_sq += delta * delta;
    }
    median = next;
    if (std::sqrt(shift_sq) < tol) break;
  }
  return median;
}

Clustering LloydKMedian(const Matrix& points,
                        const std::vector<double>& weights,
                        const Matrix& initial_centers, int max_iters) {
  const size_t n = points.rows();
  const size_t k = initial_centers.rows();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK_EQ(initial_centers.cols(), points.cols());

  Clustering result;
  result.z = 1;
  result.centers = initial_centers;
  RefreshAssignment(points, weights, &result);

  double previous_cost = result.total_cost;
  for (int iter = 0; iter < max_iters; ++iter) {
    std::vector<std::vector<size_t>> members(k);
    for (size_t i = 0; i < n; ++i) members[result.assignment[i]].push_back(i);
    for (size_t c = 0; c < k; ++c) {
      if (members[c].empty()) {
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
        continue;
      }
      const std::vector<double> median =
          GeometricMedian(points, weights, members[c]);
      auto center = result.centers.Row(c);
      for (size_t j = 0; j < points.cols(); ++j) center[j] = median[j];
    }
    RefreshAssignment(points, weights, &result);
    const double improvement =
        previous_cost > 0.0
            ? (previous_cost - result.total_cost) / previous_cost
            : 0.0;
    previous_cost = result.total_cost;
    if (improvement >= 0.0 && improvement < 1e-4) break;
  }
  return result;
}

}  // namespace fastcoreset
