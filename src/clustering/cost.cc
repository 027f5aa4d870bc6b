#include "src/clustering/cost.h"

#include <algorithm>
#include <cmath>

#include "src/common/parallel.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

std::vector<double> UnitWeights(size_t n) {
  return std::vector<double>(n, 1.0);
}

namespace {

double ApplyPower(double sq_dist, int z) {
  return z == 2 ? sq_dist : std::sqrt(sq_dist);
}

}  // namespace

double CostToCenters(const Matrix& points, const std::vector<double>& weights,
                     const Matrix& centers, int z) {
  FC_CHECK(z == 1 || z == 2);
  FC_CHECK(weights.empty() || weights.size() == points.rows());
  const std::vector<double> center_sq_norms = centers.RowSquaredNorms();
  return ParallelReduce(points.rows(), [&](size_t begin, size_t end) {
    // Small stack buffers so the chunk streams through the blocked kernel
    // without touching the heap.
    constexpr size_t kBuf = 256;
    size_t index[kBuf];
    double sq[kBuf];
    double partial = 0.0;
    for (size_t b0 = begin; b0 < end; b0 += kBuf) {
      const size_t b1 = std::min(end, b0 + kBuf);
      BatchNearestCenter(points, b0, b1, centers, center_sq_norms,
                         std::span<size_t>(index, b1 - b0),
                         std::span<double>(sq, b1 - b0));
      for (size_t i = b0; i < b1; ++i) {
        partial += WeightAt(weights, i) * ApplyPower(sq[i - b0], z);
      }
    }
    return partial;
  });
}

void RefreshAssignment(const Matrix& points,
                       const std::vector<double>& weights,
                       Clustering* clustering) {
  FC_CHECK(clustering != nullptr);
  AssignToNearest(points, clustering->centers, &clustering->assignment,
                  &clustering->point_costs);
  const int z = clustering->z;
  if (z == 1) {
    ParallelFor(points.rows(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        clustering->point_costs[i] = std::sqrt(clustering->point_costs[i]);
      }
    });
  }
  clustering->total_cost =
      ParallelReduce(points.rows(), [&](size_t begin, size_t end) {
        double partial = 0.0;
        for (size_t i = begin; i < end; ++i) {
          partial += WeightAt(weights, i) * clustering->point_costs[i];
        }
        return partial;
      });
}

}  // namespace fastcoreset
