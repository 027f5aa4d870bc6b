#include "src/clustering/fast_kmeans_plus_plus.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "src/common/fenwick_tree.h"
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

  /// Draws the next center: tree-metric D^z candidates u_0, u_1, ...,
  /// each accepted with probability (Euclidean D^z to its assigned
  /// center) / (tree D^z), until one is accepted or `retries` rejections
  /// leave u_retries standing. The tree distance dominates the Euclidean
  /// one, so this is a valid acceptance probability; it reshapes the
  /// sampling distribution toward true-metric D^z sampling.
  ///
  /// The masses are fixed between AddCenter calls, so the candidates are
  /// i.i.d. The uniforms are drawn ahead on a copy of `rng` in the serial
  /// order (a pair (u_i, a_i) per tested candidate, then u_retries alone)
  /// and each batch's Fenwick descents are resolved together. `rng` then
  /// advances by exactly the values consumed: 2i + 2 when u_i is
  /// accepted, 2 * retries + 1 when the budget runs out. Batches grow
  /// 8 -> 16 -> 32 -> 64, so an early acceptance wastes few draws.
  ///
  /// Returns nullopt, consuming nothing, once every point is covered.
  std::optional<size_t> DrawCenter(Rng& rng, size_t retries) const {
    const double total = masses_.Total();
    if (total <= 0.0) return std::nullopt;
    std::array<double, FenwickTree::kBatch> targets{}, accepts{},
        tree_pows{}, true_pows{};
    std::array<size_t, FenwickTree::kBatch> candidates{};
    Rng ahead = rng;
    size_t drawn = 0;  // Candidates resolved by earlier batches.
    for (size_t width = 8;; width = std::min(2 * width, FenwickTree::kBatch)) {
      const Rng batch_start = ahead;
      const size_t lanes = std::min(width, retries + 1 - drawn);
      const size_t tested = std::min(lanes, retries - drawn);
      for (size_t j = 0; j < lanes; ++j) {
        targets[j] = ahead.NextDouble() * total;
        if (j < tested) accepts[j] = ahead.NextDouble();
      }
      masses_.UpperBoundBatch({targets.data(), lanes},
                              {candidates.data(), lanes});
      // Sampling steps onto a positive-mass slot whenever one exists, so
      // a zero-mass candidate proves every point is covered and the
      // positive total is Fenwick rounding residue. Stop as exact
      // arithmetic would have at the total check: without consuming the
      // draw, and without a center that duplicates one already chosen.
      if (drawn == 0 && masses_.Get(candidates[0]) <= 0.0) {
        return std::nullopt;
      }
      for (size_t j = 0; j < tested; ++j) {
        const size_t p = candidates[j];
        tree_pows[j] = masses_.Get(p);
        FC_DCHECK(tree_pows[j] > 0.0);
        const size_t center = center_points_[assigned_[p]];
        true_pows[j] = WeightAt(weights_, p) *
                       DistPow(points_.Row(p), points_.Row(center), z_);
      }
      for (size_t j = 0; j < tested; ++j) {
        if (accepts[j] * tree_pows[j] <= true_pows[j]) {
          rng = batch_start;
          for (size_t v = 0; v < 2 * j + 2; ++v) rng.NextU64();
          return candidates[j];
        }
      }
      drawn += lanes;
      if (drawn > retries) {
        rng = ahead;
        return candidates[lanes - 1];
      }
    }
  }

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
  FenwickTree masses_;
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

  const size_t retries =
      options.rejection_sampling
          ? static_cast<size_t>(std::max(options.max_rejections, 0))
          : 0;
  for (size_t c = 1; c < k; ++c) {
    const std::optional<size_t> center = seeder.DrawCenter(rng, retries);
    if (!center.has_value()) break;  // Every point is covered.
    seeder.AddCenter(*center);
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
