// Johnson–Lindenstrauss random projection.
//
// Step 2 of Algorithm 1 (Fast-Coreset): embed the dataset into
// d' = O(log k / eps^2) dimensions so the downstream quadtree and seeding
// work is independent of the original feature count. Makarychev et al.
// (STOC'19) show this preserves k-means / k-median costs of all candidate
// solutions up to (1 ± eps).

#ifndef FASTCORESET_GEOMETRY_JL_PROJECTION_H_
#define FASTCORESET_GEOMETRY_JL_PROJECTION_H_

#include <cstddef>

#include "src/common/rng.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {

/// Sketch type for the projection matrix.
enum class JlSketch {
  kGaussian,    ///< i.i.d. N(0, 1/d') entries.
  kRademacher,  ///< i.i.d. ±1/sqrt(d') entries (cheaper to generate).
};

/// Target dimension for preserving k-clustering costs: O(log k / eps^2),
/// clamped to [1, original_dim].
size_t JlTargetDim(size_t k, double eps, size_t original_dim);

/// Projects `points` to `target_dim` dimensions with a fresh random sketch.
/// If target_dim >= points.cols() the input is returned unchanged (the
/// projection can only help when it reduces dimension).
///
/// The sketch is drawn serially from `rng`, row-major (d x target_dim).
/// The projection is a register-tiled kernel run row-parallel on the
/// parallel substrate. Each output adds its products x_f * S[f][j] in
/// feature order, skipping features with x_f == 0, and rounds every
/// product before adding it (no FMA), so the result equals the plain
/// serial loop bit for bit and is the same at any thread count.
Matrix JlProject(const Matrix& points, size_t target_dim, Rng& rng,
                 JlSketch sketch = JlSketch::kRademacher);

}  // namespace fastcoreset

#endif  // FASTCORESET_GEOMETRY_JL_PROJECTION_H_
