// Tests for src/geometry: matrix, distances, bounding box, JL, quadtree.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/geometry/bounding_box.h"
#include "src/geometry/cell_hash.h"
#include "src/geometry/distance.h"
#include "src/geometry/jl_projection.h"
#include "src/geometry/matrix.h"
#include "src/geometry/quadtree.h"

namespace fastcoreset {
namespace {

Matrix RandomPoints(size_t n, size_t d, Rng& rng, double box = 10.0) {
  Matrix points(n, d);
  for (double& x : points.data()) x = rng.Uniform(0.0, box);
  return points;
}

TEST(MatrixTest, AtAndRowAgree) {
  Matrix m(3, 2);
  m.At(1, 0) = 5.0;
  m.At(1, 1) = -2.0;
  const auto row = m.Row(1);
  EXPECT_EQ(row[0], 5.0);
  EXPECT_EQ(row[1], -2.0);
}

TEST(MatrixTest, SelectRowsPreservesOrder) {
  Matrix m(4, 1);
  for (size_t i = 0; i < 4; ++i) m.At(i, 0) = static_cast<double>(i);
  const Matrix sel = m.SelectRows({3, 0, 2});
  EXPECT_EQ(sel.rows(), 3u);
  EXPECT_EQ(sel.At(0, 0), 3.0);
  EXPECT_EQ(sel.At(1, 0), 0.0);
  EXPECT_EQ(sel.At(2, 0), 2.0);
}

TEST(MatrixTest, AppendRowsGrowsAndAdoptsCols) {
  Matrix empty;
  Matrix m(2, 3);
  m.At(0, 0) = 1.0;
  empty.AppendRows(m);
  EXPECT_EQ(empty.rows(), 2u);
  EXPECT_EQ(empty.cols(), 3u);
  empty.AppendRows(m);
  EXPECT_EQ(empty.rows(), 4u);
  EXPECT_EQ(empty.At(2, 0), 1.0);
}

TEST(MatrixTest, ColumnMeans) {
  Matrix m(2, 2);
  m.At(0, 0) = 1.0;
  m.At(0, 1) = 4.0;
  m.At(1, 0) = 3.0;
  m.At(1, 1) = 0.0;
  const auto means = m.ColumnMeans();
  EXPECT_NEAR(means[0], 2.0, 1e-12);
  EXPECT_NEAR(means[1], 2.0, 1e-12);
}

TEST(MatrixTest, CopyRowFrom) {
  Matrix a(1, 2), b(2, 2);
  a.At(0, 0) = 7.0;
  a.At(0, 1) = 8.0;
  b.CopyRowFrom(a, 0, 1);
  EXPECT_EQ(b.At(1, 0), 7.0);
  EXPECT_EQ(b.At(1, 1), 8.0);
  EXPECT_EQ(b.At(0, 0), 0.0);
}

TEST(DistanceTest, KnownValues) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {3.0, 4.0};
  EXPECT_NEAR(SquaredL2(a, b), 25.0, 1e-12);
  EXPECT_NEAR(L2(a, b), 5.0, 1e-12);
  EXPECT_NEAR(DistPow(a, b, 1), 5.0, 1e-12);
  EXPECT_NEAR(DistPow(a, b, 2), 25.0, 1e-12);
}

TEST(DistanceTest, FindNearestCenterPicksClosest) {
  Matrix centers(3, 1);
  centers.At(0, 0) = 0.0;
  centers.At(1, 0) = 10.0;
  centers.At(2, 0) = 4.0;
  const std::vector<double> p = {5.0};
  const NearestCenter nearest = FindNearestCenter(p, centers);
  EXPECT_EQ(nearest.index, 2u);
  EXPECT_NEAR(nearest.sq_dist, 1.0, 1e-12);
}

TEST(DistanceTest, AssignToNearestCoversAllPoints) {
  Rng rng(1);
  const Matrix points = RandomPoints(50, 3, rng);
  const Matrix centers = RandomPoints(5, 3, rng);
  std::vector<size_t> assignment;
  std::vector<double> sq;
  AssignToNearest(points, centers, &assignment, &sq);
  ASSERT_EQ(assignment.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    // Verify optimality against brute force.
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_LE(sq[i], SquaredL2(points.Row(i), centers.Row(c)) + 1e-12);
    }
  }
}

TEST(DistanceTest, RowSquaredNormsMatchDots) {
  Rng rng(17);
  const Matrix m = RandomPoints(37, 5, rng);
  const std::vector<double> norms = m.RowSquaredNorms();
  ASSERT_EQ(norms.size(), 37u);
  const std::vector<double> origin(5, 0.0);
  for (size_t i = 0; i < m.rows(); ++i) {
    EXPECT_NEAR(norms[i], SquaredL2(m.Row(i), origin), 1e-9);
  }
}

// Property test: the blocked norm-cached kernel must agree with the
// scalar SquaredL2 reference on every point — same argmin (including the
// lowest-index tie-breaking) and squared distances to tight relative
// tolerance — across shapes that exercise partial blocks, partial center
// tiles and multiple dimension strips.
TEST(DistanceTest, BatchNearestCenterMatchesScalarReference) {
  Rng rng(23);
  const struct {
    size_t n, d, k;
  } shapes[] = {
      {1, 1, 1},    {7, 3, 2},     {64, 16, 16},  {65, 16, 17},
      {200, 5, 10}, {130, 70, 33}, {96, 129, 40},
  };
  for (const auto& shape : shapes) {
    const Matrix points = RandomPoints(shape.n, shape.d, rng, 100.0);
    const Matrix centers = RandomPoints(shape.k, shape.d, rng, 100.0);
    const std::vector<double> center_norms = centers.RowSquaredNorms();
    std::vector<size_t> index(shape.n);
    std::vector<double> sq(shape.n);
    BatchNearestCenter(points, 0, shape.n, centers, center_norms,
                       std::span<size_t>(index), std::span<double>(sq));
    for (size_t i = 0; i < shape.n; ++i) {
      const NearestCenter reference =
          FindNearestCenter(points.Row(i), centers);
      EXPECT_EQ(index[i], reference.index)
          << "n=" << shape.n << " d=" << shape.d << " k=" << shape.k
          << " i=" << i;
      const double tolerance = 1e-9 * (1.0 + reference.sq_dist);
      EXPECT_NEAR(sq[i], reference.sq_dist, tolerance);
    }
  }
}

TEST(DistanceTest, BatchNearestCenterBreaksTiesTowardLowerIndex) {
  // Duplicate centers produce exactly equal distances in both forms; the
  // batch kernel must report the first copy, like FindNearestCenter.
  Matrix centers(4, 2);
  for (size_t c = 0; c < 4; ++c) {
    centers.At(c, 0) = 3.0;
    centers.At(c, 1) = -1.0;
  }
  Matrix points(2, 2);
  points.At(0, 0) = 3.0;
  points.At(0, 1) = -1.0;
  points.At(1, 0) = 100.0;
  const std::vector<double> norms = centers.RowSquaredNorms();
  std::vector<size_t> index(2);
  std::vector<double> sq(2);
  BatchNearestCenter(points, 0, 2, centers, norms,
                     std::span<size_t>(index), std::span<double>(sq));
  EXPECT_EQ(index[0], 0u);
  EXPECT_EQ(index[1], 0u);
  EXPECT_NEAR(sq[0], 0.0, 1e-12);
}

TEST(DistanceTest, BatchNearestCenterSubRangeMatchesFullRange) {
  // Results must not depend on how the row range is partitioned (the
  // ParallelFor contract): computing [0, n) in one call or in arbitrary
  // sub-ranges yields bit-identical outputs.
  Rng rng(29);
  const size_t n = 150, d = 9, k = 21;
  const Matrix points = RandomPoints(n, d, rng);
  const Matrix centers = RandomPoints(k, d, rng);
  const std::vector<double> norms = centers.RowSquaredNorms();
  std::vector<size_t> full_idx(n), part_idx(n);
  std::vector<double> full_sq(n), part_sq(n);
  BatchNearestCenter(points, 0, n, centers, norms,
                     std::span<size_t>(full_idx), std::span<double>(full_sq));
  const size_t cuts[] = {0, 13, 64, 77, 150};
  for (size_t s = 0; s + 1 < std::size(cuts); ++s) {
    const size_t begin = cuts[s], end = cuts[s + 1];
    BatchNearestCenter(
        points, begin, end, centers, norms,
        std::span<size_t>(part_idx.data() + begin, end - begin),
        std::span<double>(part_sq.data() + begin, end - begin));
  }
  EXPECT_EQ(full_idx, part_idx);
  EXPECT_EQ(full_sq, part_sq);
}

TEST(BoundingBoxTest, BoxAndDiagonal) {
  Matrix m(2, 2);
  m.At(0, 0) = -1.0;
  m.At(0, 1) = 0.0;
  m.At(1, 0) = 2.0;
  m.At(1, 1) = 4.0;
  const BoundingBox box = ComputeBoundingBox(m);
  EXPECT_EQ(box.lo[0], -1.0);
  EXPECT_EQ(box.hi[1], 4.0);
  EXPECT_NEAR(box.MaxSide(), 4.0, 1e-12);
  EXPECT_NEAR(box.Diagonal(), 5.0, 1e-12);
}

TEST(BoundingBoxTest, SpreadOfScaledGrid) {
  Matrix m(3, 1);
  m.At(0, 0) = 0.0;
  m.At(1, 0) = 1.0;
  m.At(2, 0) = 100.0;
  EXPECT_NEAR(ComputeSpreadExact(m), 100.0, 1e-9);
  EXPECT_NEAR(MinNonzeroDistance(m), 1.0, 1e-12);
}

TEST(JlTest, TargetDimClampedToOriginal) {
  EXPECT_EQ(JlTargetDim(100, 0.5, 5), 5u);
  EXPECT_GT(JlTargetDim(100, 0.5, 1000), 5u);
  EXPECT_LE(JlTargetDim(100, 0.5, 1000), 1000u);
}

TEST(JlTest, IdentityWhenTargetNotSmaller) {
  Rng rng(2);
  const Matrix points = RandomPoints(10, 4, rng);
  const Matrix projected = JlProject(points, 4, rng);
  EXPECT_EQ(projected.cols(), 4u);
  EXPECT_EQ(projected.At(3, 2), points.At(3, 2));
}

// Property test: JL approximately preserves pairwise squared distances on
// average (per-pair concentration within a generous factor).
TEST(JlTest, DistancePreservationOnAverage) {
  Rng rng(3);
  const size_t n = 40, d = 512;
  Matrix points(n, d);
  for (double& x : points.data()) x = rng.NextGaussian();
  const Matrix projected = JlProject(points, 64, rng);
  ASSERT_EQ(projected.cols(), 64u);

  double ratio_sum = 0.0;
  int pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double orig = SquaredL2(points.Row(i), points.Row(j));
      const double proj = SquaredL2(projected.Row(i), projected.Row(j));
      const double ratio = proj / orig;
      EXPECT_GT(ratio, 0.3) << "pair (" << i << "," << j << ")";
      EXPECT_LT(ratio, 2.5) << "pair (" << i << "," << j << ")";
      ratio_sum += ratio;
      ++pairs;
    }
  }
  EXPECT_NEAR(ratio_sum / pairs, 1.0, 0.15);
}

TEST(JlTest, GaussianSketchAlsoPreserves) {
  Rng rng(4);
  const size_t n = 20, d = 256;
  Matrix points(n, d);
  for (double& x : points.data()) x = rng.NextGaussian();
  const Matrix projected =
      JlProject(points, 64, rng, JlSketch::kGaussian);
  double ratio_sum = 0.0;
  int pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      ratio_sum += SquaredL2(projected.Row(i), projected.Row(j)) /
                   SquaredL2(points.Row(i), points.Row(j));
      ++pairs;
    }
  }
  EXPECT_NEAR(ratio_sum / pairs, 1.0, 0.2);
}

TEST(QuadtreeTest, EveryPointHasALeafAndParentsChainToRoot) {
  Rng rng(5);
  const Matrix points = RandomPoints(200, 3, rng);
  Quadtree tree(points, rng);
  EXPECT_EQ(tree.num_points(), 200u);
  for (size_t i = 0; i < 200; ++i) {
    int32_t v = tree.LeafOfPoint(i);
    EXPECT_TRUE(tree.is_leaf(v));
    int steps = 0;
    while (tree.parent(v) != -1) {
      const int32_t parent = tree.parent(v);
      EXPECT_EQ(tree.level(parent), tree.level(v) - 1);
      v = parent;
      ASSERT_LT(++steps, 100);
    }
    EXPECT_EQ(v, tree.root());
  }
}

TEST(QuadtreeTest, LeavesPartitionThePoints) {
  Rng rng(6);
  const Matrix points = RandomPoints(300, 2, rng);
  Quadtree tree(points, rng);
  std::set<uint32_t> seen;
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const auto v = static_cast<int32_t>(id);
    if (!tree.is_leaf(v)) {
      EXPECT_TRUE(tree.points(v).empty());
      continue;
    }
    for (uint32_t p : tree.points(v)) {
      EXPECT_TRUE(seen.insert(p).second) << "point in two leaves";
      EXPECT_EQ(tree.LeafOfPoint(p), static_cast<int32_t>(id));
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

// The structure the seeders' results depend on: children sit one level
// below their parent, are ordered by the smallest point index they hold,
// and every leaf lists its points in ascending order. Duplicated rows
// force multi-point leaves at max_depth.
TEST(QuadtreeTest, ChildrenOrderedBySmallestPointAndLeavesAscending) {
  Rng rng(12);
  const Matrix base = RandomPoints(400, 3, rng);
  std::vector<size_t> rows(1200);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = (i * 13) % 400;
  const Matrix points = base.SelectRows(rows);
  for (const QuadtreeOptions options :
       {QuadtreeOptions{30, false}, QuadtreeOptions{6, false},
        QuadtreeOptions{9, true}}) {
    Quadtree tree(points, rng, options);
    // Smallest point index per subtree, bottom-up (children have larger
    // ids than their parent).
    std::vector<uint32_t> smallest(tree.num_nodes(), UINT32_MAX);
    for (size_t id = tree.num_nodes(); id-- > 0;) {
      const auto v = static_cast<int32_t>(id);
      if (tree.is_leaf(v)) {
        const auto leaf_points = tree.points(v);
        ASSERT_FALSE(leaf_points.empty()) << "node " << id;
        EXPECT_TRUE(std::is_sorted(leaf_points.begin(), leaf_points.end()))
            << "node " << id;
        EXPECT_EQ(std::adjacent_find(leaf_points.begin(), leaf_points.end()),
                  leaf_points.end());
        smallest[id] = leaf_points.front();
        continue;
      }
      uint32_t previous = 0;
      bool first = true;
      for (int32_t child : tree.children(v)) {
        EXPECT_GT(child, v);
        EXPECT_EQ(tree.parent(child), v);
        EXPECT_EQ(tree.level(child), tree.level(v) + 1);
        if (!first) {
          EXPECT_LT(previous, smallest[child]) << "node " << id;
        }
        previous = smallest[child];
        first = false;
      }
      smallest[id] = smallest[tree.children(v).front()];
    }
    EXPECT_EQ(smallest[tree.root()], 0u);
  }
}

// The defining HST property: tree distance dominates Euclidean distance.
TEST(QuadtreeTest, TreeDistanceDominatesEuclidean) {
  Rng rng(7);
  const Matrix points = RandomPoints(100, 4, rng);
  Quadtree tree(points, rng);
  for (size_t i = 0; i < 100; i += 7) {
    for (size_t j = i + 1; j < 100; j += 11) {
      const double euclid = L2(points.Row(i), points.Row(j));
      const double in_tree = tree.TreeDistance(i, j);
      if (in_tree == 0.0) {
        // Co-located at max depth: must be genuinely close.
        EXPECT_LT(euclid, 1e-6);
      } else {
        EXPECT_GE(in_tree, euclid * 0.999);
      }
    }
  }
}

// Lemma 2.2 (statistical): expected tree distance within O(d log Δ) of
// the Euclidean distance. We check the average over random shifts.
TEST(QuadtreeTest, ExpectedTreeDistortionBounded) {
  Rng data_rng(8);
  const size_t d = 2;
  const Matrix points = RandomPoints(50, d, data_rng, 100.0);
  const double spread_log = std::log2(ComputeSpreadExact(points)) + 1.0;

  double total_ratio = 0.0;
  int trials = 20;
  for (int t = 0; t < trials; ++t) {
    Rng rng(100 + t);
    Quadtree tree(points, rng);
    double ratio_sum = 0.0;
    int pairs = 0;
    for (size_t i = 0; i < 50; i += 3) {
      for (size_t j = i + 1; j < 50; j += 5) {
        const double euclid = L2(points.Row(i), points.Row(j));
        if (euclid < 1e-9) continue;
        ratio_sum += tree.TreeDistance(i, j) / euclid;
        ++pairs;
      }
    }
    total_ratio += ratio_sum / pairs;
  }
  const double mean_ratio = total_ratio / trials;
  EXPECT_GE(mean_ratio, 1.0);
  // Constant slack over the O(d log Δ) bound.
  EXPECT_LE(mean_ratio, 16.0 * d * spread_log);
}

TEST(QuadtreeTest, CellSideHalvesPerLevel) {
  Rng rng(9);
  const Matrix points = RandomPoints(10, 2, rng);
  Quadtree tree(points, rng);
  EXPECT_NEAR(tree.CellSide(1), tree.root_side() / 2.0, 1e-12);
  EXPECT_NEAR(tree.CellSide(5), tree.root_side() / 32.0, 1e-12);
}

TEST(QuadtreeTest, IdenticalPointsShareALeaf) {
  Matrix points(5, 2);  // All at the origin-ish (identical).
  Rng rng(10);
  Quadtree tree(points, rng, /*max_depth=*/12);
  const int32_t leaf = tree.LeafOfPoint(0);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(tree.LeafOfPoint(i), leaf);
    EXPECT_EQ(tree.TreeDistance(0, i), 0.0);
  }
  EXPECT_EQ(tree.level(leaf), 12);
}

TEST(QuadtreeTest, DepthAdaptsToSpread) {
  // Two well-separated groups of two close points each: the tree must go
  // deep enough to separate close pairs but stays shallow elsewhere.
  Matrix points(4, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 1e-4;
  points.At(2, 0) = 1.0;
  points.At(3, 0) = 1.0 + 1e-4;
  Rng rng(11);
  Quadtree tree(points, rng, /*max_depth=*/60);
  // Close pairs separate ~13-16 levels down (2 / 1e-4 = 2e4 ~ 2^14.3).
  EXPECT_NE(tree.LeafOfPoint(0), tree.LeafOfPoint(1));
  const int lca_close = tree.LcaLevel(0, 1);
  const int lca_far = tree.LcaLevel(0, 2);
  EXPECT_GT(lca_close, lca_far);
  EXPECT_GE(lca_close, 10);
}

// Lemma 4.3-flavoured property: the probability that two points at
// distance delta are in different cells of side r is at most d*delta/r.
// We pin the root scale with a far-away third point and measure how often
// a close pair (delta = 0.01) separates at a coarse level (side 0.625):
// the bound gives p <= 0.016.
TEST(QuadtreeTest, SeparationProbabilityScalesWithDistance) {
  Matrix points(3, 1);
  points.At(0, 0) = 5.0;
  points.At(1, 0) = 5.01;   // Close pair, delta = 0.01.
  points.At(2, 0) = 10.0;   // Anchors base = 10 -> root side 20.

  int separated_coarse = 0;   // LCA above level 5 (side 0.625).
  int separated_fine = 0;     // LCA above level 10 (side ~0.0195).
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    Rng rng(200 + t);
    Quadtree tree(points, rng, /*max_depth=*/30);
    const int lca = tree.LcaLevel(0, 1);
    if (lca < 5) ++separated_coarse;
    if (lca < 10) ++separated_fine;
  }
  // Coarse: bound 0.016 * 3000 = 48; allow 3x statistical slack.
  EXPECT_LT(separated_coarse, 150);
  // Fine: bound 0.512 — separation must actually happen at fine levels
  // (the probability is also at least ~delta/side/2 for dyadic shifts).
  EXPECT_GT(separated_fine, 300);
}

TEST(CellHashTest, DistinctCoordsDistinctKeys) {
  std::vector<int64_t> a = {1, 2, 3};
  std::vector<int64_t> b = {1, 2, 4};
  EXPECT_FALSE(HashCell(0, a) == HashCell(0, b));
  EXPECT_FALSE(HashCell(0, a) == HashCell(1, a));
  EXPECT_TRUE(HashCell(3, a) == HashCell(3, a));
}

}  // namespace
}  // namespace fastcoreset
