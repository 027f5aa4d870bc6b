// Shared result type for clustering algorithms.

#ifndef FASTCORESET_CLUSTERING_TYPES_H_
#define FASTCORESET_CLUSTERING_TYPES_H_

#include <cstddef>
#include <vector>

#include "src/geometry/matrix.h"

namespace fastcoreset {

/// A clustering solution: centers plus an explicit assignment of every
/// input point to one center. Algorithms in this library always produce
/// assignments (not just centers) because sensitivity sampling consumes
/// per-cluster statistics — this is exactly the property of Fast-kmeans++
/// that Algorithm 1 relies on.
struct Clustering {
  /// k x d matrix of centers.
  Matrix centers;
  /// assignment[i] = row of `centers` that point i is assigned to.
  std::vector<size_t> assignment;
  /// point_costs[i] = dist^z(point i, its assigned center), unweighted.
  std::vector<double> point_costs;
  /// Sum over points of weight * point_cost.
  double total_cost = 0.0;
  /// Cost exponent: 1 = k-median, 2 = k-means.
  int z = 2;
};

/// Convenience: a vector of n unit weights.
std::vector<double> UnitWeights(size_t n);

/// Weight of point i; an empty weight vector means unit weights.
inline double WeightAt(const std::vector<double>& weights, size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

}  // namespace fastcoreset

#endif  // FASTCORESET_CLUSTERING_TYPES_H_
