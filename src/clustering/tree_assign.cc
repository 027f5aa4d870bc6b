#include "src/clustering/tree_assign.h"

#include <vector>

#include "src/geometry/distance.h"
#include "src/geometry/quadtree.h"

namespace fastcoreset {

namespace {

double WeightAt(const std::vector<double>& weights, size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

}  // namespace

Clustering TreeAssign(const Matrix& points,
                      const std::vector<double>& weights,
                      const Matrix& centers, int z, Rng& rng,
                      int max_depth) {
  const size_t n = points.rows();
  const size_t k = centers.rows();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK_EQ(points.cols(), centers.cols());
  FC_CHECK(z == 1 || z == 2);
  FC_CHECK(weights.empty() || weights.size() == n);

  // One tree over points and centers; centers occupy rows n .. n+k-1.
  Matrix combined = points;
  combined.AppendRows(centers);
  Quadtree tree(combined, rng, max_depth);

  std::vector<uint8_t> covered(tree.num_nodes(), 0);
  std::vector<int16_t> cov_level(n, -1);
  std::vector<uint32_t> assigned(n, 0);
  std::vector<int32_t> newly, stack;

  for (size_t c = 0; c < k; ++c) {
    // Cover the center's path; update points in the newly covered
    // subtrees exactly as Fast-kmeans++'s seeder does.
    newly.clear();
    for (int32_t v = tree.LeafOfPoint(n + c); v != -1 && !covered[v];
         v = tree.parent(v)) {
      newly.push_back(v);
    }
    for (int32_t v : newly) covered[v] = 1;
    for (int32_t u : newly) {
      const int u_level = tree.level(u);
      stack.clear();
      stack.push_back(u);
      while (!stack.empty()) {
        const int32_t x = stack.back();
        stack.pop_back();
        if (tree.is_leaf(x)) {
          for (uint32_t p : tree.points(x)) {
            if (p >= n) continue;  // Center rows are not assigned.
            if (cov_level[p] >= u_level && cov_level[p] != -1) continue;
            cov_level[p] = static_cast<int16_t>(u_level);
            assigned[p] = static_cast<uint32_t>(c);
          }
        } else {
          for (int32_t child : tree.children(x)) {
            if (!covered[child]) stack.push_back(child);
          }
        }
      }
    }
  }

  Clustering result;
  result.z = z;
  result.centers = centers;
  result.assignment.resize(n);
  result.point_costs.resize(n);
  result.total_cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.assignment[i] = assigned[i];
    result.point_costs[i] =
        DistPow(points.Row(i), centers.Row(assigned[i]), z);
    result.total_cost += WeightAt(weights, i) * result.point_costs[i];
  }
  return result;
}

}  // namespace fastcoreset
