// Randomly-shifted quadtree over a Euclidean point set (Section 2.4).
//
// The tree induces a hierarchically separated tree (HST) metric: the
// distance between two points is a function of the level of their lowest
// common ancestor cell, and dominates their Euclidean distance (Lemma 2.2:
// the expected tree distance is within O(d log Δ) of the true one).
//
// Construction is one bulk, level-synchronous pass. Every cell that must
// split at level l is partitioned into its occupied child cells at once:
// a sequential pass over the still-active points computes each point's
// child code (2 bits per dimension), then a counting partition groups each
// cell's points by code. Both steps run on the parallel substrate with
// chunk plans fixed by the input size, so the tree is identical at any
// thread count. Total work is O(n·d·depth) with no per-cell allocation;
// memory is proportional to the number of *occupied* cells, never 2^d.
//
// The tree is stored flat (CSR): per node a level, a parent, a contiguous
// range of child ids, and a contiguous range of the single point array.
// Children of a node are ordered by the smallest point index they hold,
// and a leaf lists its points in ascending index order — the same
// structure, child order and leaf order an insertion of points 0..n-1
// would produce, which is what keeps seeding results stable.

#ifndef FASTCORESET_GEOMETRY_QUADTREE_H_
#define FASTCORESET_GEOMETRY_QUADTREE_H_

#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {

/// Construction options.
struct QuadtreeOptions {
  /// Cap on the tree height, in [1, Quadtree::kMaxDepth]; points still
  /// sharing a cell at max_depth are treated as co-located in the tree
  /// metric.
  int max_depth = 30;
  /// When false (default, adaptive): a cell stops splitting once it holds
  /// a single point, so depth — and cost — adapt to the local geometry.
  /// When true: every point descends to max_depth, reproducing the
  /// O(nd log Δ) construction cost of the non-adaptive embedding the
  /// paper's Table 1 measures.
  bool full_depth = false;
};

/// Randomly-shifted quadtree / HST embedding of a point set.
class Quadtree {
 public:
  /// Largest supported depth: cell coordinates at level l reach 1.5·2^l,
  /// which must stay below 2^63 to be an int64_t.
  static constexpr int kMaxDepth = 62;

  /// Builds the tree over `points` with a fresh uniform random shift
  /// (exactly points.cols() uniform draws from `rng`).
  Quadtree(const Matrix& points, Rng& rng, const QuadtreeOptions& options);

  /// Convenience: adaptive tree with the given depth cap.
  Quadtree(const Matrix& points, Rng& rng, int max_depth = 30)
      : Quadtree(points, rng, QuadtreeOptions{max_depth, false}) {}

  Quadtree(const Quadtree&) = delete;
  Quadtree& operator=(const Quadtree&) = delete;

  size_t num_points() const { return leaf_of_point_.size(); }
  size_t num_nodes() const { return level_.size(); }
  int max_depth() const { return max_depth_; }
  size_t dim() const { return shift_.size(); }

  int32_t root() const { return 0; }

  /// Depth of node `v`; the root is level 0 with side root_side().
  int level(int32_t v) const { return level_[v]; }

  /// Parent of node `v` (-1 for the root).
  int32_t parent(int32_t v) const { return parent_[v]; }

  /// True iff `v` has no children (and therefore holds points).
  bool is_leaf(int32_t v) const {
    return child_begin_[v] == child_begin_[v + 1];
  }

  /// Ids of the occupied child cells of `v`: one contiguous id range,
  /// ordered by the smallest point index in each child. Empty for leaves.
  std::ranges::iota_view<int32_t, int32_t> children(int32_t v) const {
    return std::views::iota(child_begin_[v], child_begin_[v + 1]);
  }

  /// Points held by leaf `v`, in ascending index order. Empty for
  /// internal nodes.
  std::span<const uint32_t> points(int32_t v) const {
    if (!is_leaf(v)) return {};
    return std::span<const uint32_t>(pts_).subspan(
        point_begin_[v], point_end_[v] - point_begin_[v]);
  }

  /// Leaf cell containing point `point_idx`.
  int32_t LeafOfPoint(size_t point_idx) const {
    return leaf_of_point_[point_idx];
  }

  /// Side length of cells at `level`: root_side / 2^level.
  double CellSide(int level) const;

  /// Side length of the root cell.
  double root_side() const { return root_side_; }

  /// Random shift vector used to anchor the grid.
  const std::vector<double>& shift() const { return shift_; }

  /// HST distance between two points whose lowest common ancestor sits at
  /// `level`: twice the diagonal of a level-`level` cell (the length of the
  /// down-paths on both sides, geometrically summed). Dominates the
  /// Euclidean distance between any two points separated at that level.
  double TreeDistanceAtLevel(int level) const;

  /// Level of the lowest common ancestor of two points (max_depth if they
  /// share a leaf). Walks parent pointers: O(depth).
  int LcaLevel(size_t point_a, size_t point_b) const;

  /// Tree-metric distance between two points.
  double TreeDistance(size_t point_a, size_t point_b) const;

 private:
  void Build(const Matrix& points);

  int max_depth_;
  bool full_depth_;
  double root_side_ = 1.0;
  std::vector<double> shift_;
  // Per node.
  std::vector<uint8_t> level_;
  std::vector<int32_t> parent_;
  std::vector<int32_t> child_begin_;  // num_nodes() + 1 entries.
  std::vector<uint32_t> point_begin_;  // Subtree range in pts_.
  std::vector<uint32_t> point_end_;
  // Per point.
  std::vector<uint32_t> pts_;  // Point indices, grouped by subtree.
  std::vector<int32_t> leaf_of_point_;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_GEOMETRY_QUADTREE_H_
