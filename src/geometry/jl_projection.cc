#include "src/geometry/jl_projection.h"

#include <algorithm>
#include <cmath>

namespace fastcoreset {

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

  // Projection matrix S is d x d', scaled so E[||Sx||^2] = ||x||^2.
  const double scale = 1.0 / std::sqrt(static_cast<double>(target_dim));
  Matrix sketch_matrix(d, target_dim);
  for (size_t i = 0; i < d; ++i) {
    auto row = sketch_matrix.Row(i);
    for (size_t j = 0; j < target_dim; ++j) {
      row[j] = scale * (sketch == JlSketch::kGaussian ? rng.NextGaussian()
                                                      : rng.NextSign());
    }
  }

  Matrix projected(points.rows(), target_dim);
  for (size_t i = 0; i < points.rows(); ++i) {
    const auto src = points.Row(i);
    auto dst = projected.Row(i);
    for (size_t f = 0; f < d; ++f) {
      const double x = src[f];
      if (x == 0.0) continue;
      const auto srow = sketch_matrix.Row(f);
      for (size_t j = 0; j < target_dim; ++j) dst[j] += x * srow[j];
    }
  }
  return projected;
}

}  // namespace fastcoreset
