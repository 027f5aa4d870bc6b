// Standard k-means++ / k-median++ seeding (Arthur & Vassilvitskii, SODA'07),
// generalized to weighted point sets and both cost exponents.
//
// Runs in O(n * k * d): each new center is drawn proportional to
// w_p * dist^z(p, C) against the current center set, which is the O(nk)
// bottleneck the Fast-Coreset paper removes via the quadtree variant.
// Two exact triangle-inequality tests (Elkan, ICML'03, as applied to
// seeding by Raff, IJCAI'21) skip the distances a new center provably
// cannot improve. A serial pass over fixed blocks of 512 consecutive rows
// skips every block whose anchor row lies far enough from the new center,
// given the block's radius and its largest current distance; the blocks
// left run on the pool, where a per-point test on the point's own center
// gap skips most of the rest. On clustered data most rows are never read.
// The output is the same, bit for bit, as with every distance computed.

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
/// `kmeanspp_distance_evals` and the rows the rounds scan to its
/// `kmeanspp_rows_tested`.
Clustering KMeansPlusPlus(const Matrix& points,
                          const std::vector<double>& weights, size_t k, int z,
                          Rng& rng, WorkCounters* work = nullptr);

}  // namespace fastcoreset

#endif  // FASTCORESET_CLUSTERING_KMEANS_PLUS_PLUS_H_
