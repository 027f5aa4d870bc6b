#include "src/clustering/fast_kmeans_plus_plus.h"

#include <cmath>

#include "src/common/discrete_distribution.h"
#include "src/common/parallel.h"
#include "src/geometry/distance.h"
#include "src/geometry/quadtree.h"

namespace fastcoreset {

namespace {

/// Incremental tree-metric D^z sampler over a fixed quadtree.
class TreeSeeder {
 public:
  TreeSeeder(const Matrix& points, const std::vector<double>& weights,
             const Quadtree& tree, int z)
      : points_(points),
        weights_(weights),
        tree_(tree),
        z_(z),
        covered_(tree.num_nodes(), 0),
        cov_level_(points.rows(), -1),
        assigned_(points.rows(), 0),
        masses_(points.rows()) {}

  /// Registers `point_idx` as the next center and updates every point's
  /// tree distance / assignment. Returns the center's ordinal.
  size_t AddCenter(size_t point_idx) {
    const size_t ordinal = center_points_.size();
    center_points_.push_back(point_idx);

    // Collect the not-yet-covered suffix of the root-to-leaf path.
    const int32_t center_leaf = tree_.LeafOfPoint(point_idx);
    newly_.clear();
    for (int32_t v = center_leaf; v != -1 && !covered_[v];
         v = tree_.parent(v)) {
      newly_.push_back(v);
    }
    // Mark first so each traversal below prunes at the deeper path nodes;
    // every point is then updated by exactly one traversal.
    for (int32_t v : newly_) covered_[v] = 1;

    for (int32_t u : newly_) {
      const int u_level = tree_.level(u);
      // If u is the leaf holding the new center, its points are
      // co-located with the center in the tree metric: distance 0.
      const double dist =
          u == center_leaf ? 0.0 : tree_.TreeDistanceAtLevel(u_level);
      const double dist_pow = z_ == 2 ? dist * dist : dist;
      // Points whose deepest covered ancestor becomes u are exactly the
      // points of subtree(u) with no covered cell strictly below u.
      stack_.clear();
      stack_.push_back(u);
      while (!stack_.empty()) {
        const int32_t x = stack_.back();
        stack_.pop_back();
        if (tree_.is_leaf(x)) {
          for (uint32_t p : tree_.points(x)) {
            if (cov_level_[p] >= u_level && cov_level_[p] != -1) continue;
            cov_level_[p] = u_level;
            assigned_[p] = static_cast<uint32_t>(ordinal);
            masses_.Set(p, WeightAt(weights_, p) * dist_pow);
          }
        } else {
          for (int32_t child : tree_.children(x)) {
            if (!covered_[child]) stack_.push_back(child);
          }
        }
      }
    }
    return ordinal;
  }

  /// Total remaining tree-metric D^z mass.
  double TotalMass() const { return masses_.Total(); }

  /// Samples a point index proportional to the current tree-metric masses.
  size_t Sample(Rng& rng) const { return masses_.Sample(rng); }

  double MassOf(size_t p) const { return masses_.Get(p); }
  size_t AssignedOrdinal(size_t p) const { return assigned_[p]; }
  const std::vector<size_t>& center_points() const { return center_points_; }

 private:
  const Matrix& points_;
  const std::vector<double>& weights_;
  const Quadtree& tree_;
  const int z_;
  std::vector<uint8_t> covered_;
  // Deepest covered-ancestor level per point, -1 = not covered yet.
  std::vector<int32_t> cov_level_;
  std::vector<uint32_t> assigned_;
  DiscreteDistribution masses_;
  std::vector<size_t> center_points_;
  std::vector<int32_t> newly_;  // AddCenter scratch, reused across calls.
  std::vector<int32_t> stack_;
};

}  // namespace

Clustering FastKMeansPlusPlus(const Matrix& points,
                              const std::vector<double>& weights, size_t k,
                              const FastKMeansPlusPlusOptions& options,
                              Rng& rng) {
  const size_t n = points.rows();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK(options.z == 1 || options.z == 2);
  FC_CHECK(weights.empty() || weights.size() == n);
  if (k > n) k = n;

  Quadtree tree(points, rng,
                QuadtreeOptions{options.max_depth, options.full_depth_tree});
  TreeSeeder seeder(points, weights, tree, options.z);

  // First center: weight-proportional draw.
  const size_t first =
      weights.empty() ? rng.NextIndex(n) : rng.SampleDiscrete(weights);
  seeder.AddCenter(first);

  for (size_t c = 1; c < k; ++c) {
    if (seeder.TotalMass() <= 0.0) break;  // No uncovered leaf remains.
    size_t candidate = seeder.Sample(rng);
    if (options.rejection_sampling) {
      for (int attempt = 0; attempt < options.max_rejections; ++attempt) {
        // Accept with probability (Euclidean D^z to the assigned center) /
        // (tree D^z). The tree distance dominates the Euclidean one, so
        // this is a valid acceptance probability; it reshapes the sampling
        // distribution toward true-metric D^z sampling.
        const double tree_pow = seeder.MassOf(candidate);
        if (tree_pow <= 0.0) {
          // Zero remaining tree mass means the candidate is co-located
          // with an existing center (covered). Accepting it would emit a
          // duplicate center while uncovered points remain, so resample.
          // Sample() only returns positive-mass slots, making this
          // unreachable after a draw — it guards the entry state.
          candidate = seeder.Sample(rng);
          continue;
        }
        const size_t assigned_center =
            seeder.center_points()[seeder.AssignedOrdinal(candidate)];
        const double true_pow = WeightAt(weights, candidate) *
                                DistPow(points.Row(candidate),
                                        points.Row(assigned_center),
                                        options.z);
        if (rng.NextDouble() * tree_pow <= true_pow) break;
        candidate = seeder.Sample(rng);
      }
    }
    seeder.AddCenter(candidate);
  }

  const std::vector<size_t>& center_points = seeder.center_points();
  Clustering result;
  result.z = options.z;
  result.centers = Matrix(center_points.size(), points.cols());
  for (size_t c = 0; c < center_points.size(); ++c) {
    result.centers.CopyRowFrom(points, center_points[c], c);
  }

  // Report Euclidean costs of the tree-derived assignment; this is what
  // Fact 3.1 consumes. O(nd), with a chunk-order-deterministic total.
  result.assignment.resize(n);
  result.point_costs.resize(n);
  result.total_cost = ParallelReduce(n, [&](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      result.assignment[i] = seeder.AssignedOrdinal(i);
      result.point_costs[i] =
          DistPow(points.Row(i), result.centers.Row(result.assignment[i]),
                  options.z);
      partial += WeightAt(weights, i) * result.point_costs[i];
    }
    return partial;
  });
  return result;
}

}  // namespace fastcoreset
