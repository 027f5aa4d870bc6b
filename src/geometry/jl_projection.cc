#include "src/geometry/jl_projection.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/parallel.h"

namespace fastcoreset {

namespace {

// Outputs per register tile: eight 2-lane accumulators, enough
// independent add chains to hide the add latency, and a whole row for the
// usual d' = O(log k / eps^2) of 2–16. The sketch's rows are padded with
// zeros to a multiple of kTile, so every tile runs at full width; padded
// lanes accumulate zeros and are never stored.
constexpr size_t kTile = 16;

// Explicit SIMD via vector extensions, as in distance.cc: GCC keeps
// vector-typed accumulators in registers across the feature loop, where a
// double array would be reloaded and spilled every iteration. Two lanes is
// the baseline x86-64 register width; wider vector types are lowered
// through the stack there. Loads and stores go through memcpy, which
// compiles to unaligned vector moves.
typedef double v2df __attribute__((vector_size(16)));

// Computes kTile consecutive outputs of one row: out[c] = sum over
// features f with x[f] != 0, in ascending f, of x[f] * sketch[f][c].
// `sketch` points at the tile's first column, `stride` is the padded row
// length. Each lane is one running sum of rounded products added in
// feature order — the exact operation sequence of the textbook loop
// `dst[c] += x[f] * s[f][c]`, so the result is bit-identical to it (FMA
// contraction is switched off for this file in CMakeLists.txt).
void ProjectTile(const double* x, size_t d, const double* sketch,
                 size_t stride, double* out) {
  constexpr size_t kVecs = kTile / 2;
  v2df acc[kVecs];
  for (size_t v = 0; v < kVecs; ++v) acc[v] = v2df{0.0, 0.0};
  for (size_t f = 0; f < d; ++f, sketch += stride) {
    const double xf = x[f];
    if (xf == 0.0) continue;
    const v2df xv = {xf, xf};
    for (size_t v = 0; v < kVecs; ++v) {
      v2df s;
      std::memcpy(&s, sketch + 2 * v, sizeof(s));
      acc[v] += xv * s;
    }
  }
  std::memcpy(out, acc, sizeof(acc));
}

}  // namespace

size_t JlTargetDim(size_t k, double eps, size_t original_dim) {
  FC_CHECK_GT(eps, 0.0);
  const double dims =
      std::ceil(std::log(static_cast<double>(std::max<size_t>(k, 2))) /
                (eps * eps));
  // Compare before the cast: a tiny eps makes dims exceed every size_t.
  if (dims >= static_cast<double>(original_dim)) return original_dim;
  return std::max<size_t>(1, static_cast<size_t>(dims));
}

Matrix JlProject(const Matrix& points, size_t target_dim, Rng& rng,
                 JlSketch sketch) {
  FC_CHECK_GT(target_dim, 0u);
  const size_t d = points.cols();
  if (target_dim >= d) return points;

  // Projection matrix S is d x d', scaled so E[||Sx||^2] = ||x||^2, drawn
  // row-major. Stored flat with each row padded to whole tiles.
  const double scale = 1.0 / std::sqrt(static_cast<double>(target_dim));
  const size_t stride = (target_dim + kTile - 1) / kTile * kTile;
  std::vector<double> sketch_matrix(d * stride, 0.0);
  for (size_t i = 0; i < d; ++i) {
    double* row = sketch_matrix.data() + i * stride;
    for (size_t j = 0; j < target_dim; ++j) {
      row[j] = scale * (sketch == JlSketch::kGaussian ? rng.NextGaussian()
                                                      : rng.NextSign());
    }
  }

  // Rows are independent and each output is computed by one tile, so the
  // row-parallel pass is bit-identical at any thread count.
  Matrix projected(points.rows(), target_dim);
  ParallelFor(points.rows(), [&](size_t begin, size_t end) {
    double tile[kTile];
    for (size_t i = begin; i < end; ++i) {
      const double* x = points.Row(i).data();
      double* dst = projected.Row(i).data();
      for (size_t t0 = 0; t0 < target_dim; t0 += kTile) {
        ProjectTile(x, d, sketch_matrix.data() + t0, stride, tile);
        std::copy_n(tile, std::min(kTile, target_dim - t0), dst + t0);
      }
    }
  });
  return projected;
}

}  // namespace fastcoreset
