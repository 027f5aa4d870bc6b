// Weighted clustering cost evaluation, cost_z(P, C) = sum_p w_p dist^z(p, C).

#ifndef FASTCORESET_CLUSTERING_COST_H_
#define FASTCORESET_CLUSTERING_COST_H_

#include <vector>

#include "src/clustering/types.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {

/// cost_z(P, C): every point pays weight * dist^z to its *nearest* center.
/// `weights` may be empty (unit weights). O(n * k * d).
double CostToCenters(const Matrix& points, const std::vector<double>& weights,
                     const Matrix& centers, int z);

/// Reassigns every point to its nearest center and recomputes point costs
/// and the (weighted) total. Centers and z are taken from `clustering`.
void RefreshAssignment(const Matrix& points,
                       const std::vector<double>& weights,
                       Clustering* clustering);

}  // namespace fastcoreset

#endif  // FASTCORESET_CLUSTERING_COST_H_
