// Standard k-means++ / k-median++ seeding (Arthur & Vassilvitskii, SODA'07),
// generalized to weighted point sets and both cost exponents.
//
// Runs in O(n * k * d): each new center is drawn proportional to
// w_p * dist^z(p, C) against the current center set, which is the O(nk)
// bottleneck the Fast-Coreset paper removes via the quadtree variant.
// An exact triangle-inequality test (Elkan, ICML'03, as applied to seeding
// by Raff, IJCAI'21) skips the distance of every point that a new center
// provably cannot move; on clustered data most of them. The output is the
// same, bit for bit, as with every distance computed.

#ifndef FASTCORESET_CLUSTERING_KMEANS_PLUS_PLUS_H_
#define FASTCORESET_CLUSTERING_KMEANS_PLUS_PLUS_H_

#include <cstddef>
#include <vector>

#include "src/clustering/types.h"
#include "src/common/rng.h"
#include "src/common/work_counters.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {

/// D^z-sampling seeding. `weights` may be empty (unit weights). Returns a
/// full Clustering (centers + nearest-center assignment + costs).
/// Requires 1 <= k; if k >= n every point becomes a center.
/// `work`, when non-null, gets the distance evaluations added to its
/// `kmeanspp_distance_evals`.
Clustering KMeansPlusPlus(const Matrix& points,
                          const std::vector<double>& weights, size_t k, int z,
                          Rng& rng, WorkCounters* work = nullptr);

}  // namespace fastcoreset

#endif  // FASTCORESET_CLUSTERING_KMEANS_PLUS_PLUS_H_
