// Distance kernels. The library works with powers z in {1, 2}:
// z = 1 is k-median (plain Euclidean distance), z = 2 is k-means
// (squared Euclidean distance).
//
// Two tiers:
//   - Scalar reference kernels (SquaredL2, FindNearestCenter): one point
//     against one/all centers via the direct (x - c)^2 form. Exact and
//     simple; used for small inputs and as the ground truth the property
//     tests compare against.
//   - Blocked batched kernel (BatchNearestCenter): processes a block of
//     point rows against a cache-resident tile of centers using the
//     norm-cached form ‖x − c‖² = ‖x‖² − 2x·c + ‖c‖². The inner loop is a
//     contiguous dot product (one fma per element after vectorization,
//     versus sub+mul+add for the direct form) and each center tile is
//     reused across the whole point block. Only the clustering cost and
//     assignment passes (src/clustering/cost.cc) and k-means||'s candidate
//     reclustering (src/clustering/kmeans_parallel.cc) call it, directly
//     or through AssignToNearest. KMeansPlusPlus, the O(nkd) seeding
//     behind sensitivity, welterweight, group_sampling and stream_km,
//     does not: it takes the scalar SquaredL2 from each new center to
//     the earlier centers and to one anchor row per 512-row block, then
//     to each point that two triangle-inequality tests cannot rule out:
//     one on whole blocks (anchor gap against the block's radius and
//     largest current distance), one on the point's own center gap. On
//     clustered data most rows are never read.
//
// The batched kernel is deterministic: a point's result depends only on
// the point and the centers, never on block or chunk boundaries, so
// outputs are bit-identical at any FC_THREADS.

#ifndef FASTCORESET_GEOMETRY_DISTANCE_H_
#define FASTCORESET_GEOMETRY_DISTANCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/geometry/matrix.h"

namespace fastcoreset {

/// Squared Euclidean distance between two equal-length vectors.
double SquaredL2(std::span<const double> a, std::span<const double> b);

/// Euclidean distance between two equal-length vectors.
double L2(std::span<const double> a, std::span<const double> b);

/// dist^z for z in {1, 2}.
double DistPow(std::span<const double> a, std::span<const double> b, int z);

/// Result of a nearest-center query.
struct NearestCenter {
  size_t index = 0;     ///< Row index of the nearest center.
  double sq_dist = 0.;  ///< Squared Euclidean distance to it.
};

/// Nearest row of `centers` to `point` (scalar brute force over centers).
NearestCenter FindNearestCenter(std::span<const double> point,
                                const Matrix& centers);

/// Blocked nearest-center kernel over the point rows [row_begin, row_end).
/// `center_sq_norms` must be centers.RowSquaredNorms(). Results for row i
/// land at out_index[i - row_begin] / out_sq_dist[i - row_begin] (both
/// spans sized row_end - row_begin). Ties break toward the lower center
/// index, matching FindNearestCenter; squared distances are computed in
/// the norm-cached form and clamped at zero, so they match the scalar
/// kernel to floating-point tolerance (not bit-exactly).
void BatchNearestCenter(const Matrix& points, size_t row_begin,
                        size_t row_end, const Matrix& centers,
                        std::span<const double> center_sq_norms,
                        std::span<size_t> out_index,
                        std::span<double> out_sq_dist);

/// For every row of `points`, the nearest row of `centers`.
/// Writes assignment indices and squared distances (vectors are resized).
/// Runs the blocked kernel across the ParallelFor substrate.
void AssignToNearest(const Matrix& points, const Matrix& centers,
                     std::vector<size_t>* assignment,
                     std::vector<double>* sq_dists);

}  // namespace fastcoreset

#endif  // FASTCORESET_GEOMETRY_DISTANCE_H_
