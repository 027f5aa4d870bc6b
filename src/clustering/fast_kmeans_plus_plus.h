// Fast-kmeans++ (Cohen-Addad, Lattanzi, Norouzi-Fard, Sohler, Svensson,
// NeurIPS'20): k-means++/k-median++ seeding in a randomly-shifted quadtree
// metric, running in Õ(nd log Δ) instead of O(ndk).
//
// The key structural property — the one Algorithm 1 of the Fast-Coreset
// paper depends on — is that the seeding produces an *assignment* of every
// point to a center, not just the center set, and that this assignment is
// an O(d^z log k) approximation in expectation (an O(log^{z+1} k) one after
// Johnson-Lindenstrauss projection to O(log k) dimensions).
//
// Implementation: the D^z distribution is maintained w.r.t. the HST (tree)
// metric. A point's tree distance to the center set is determined by its
// deepest *covered* ancestor (a cell containing a center in its subtree).
// Adding a center covers its root-to-leaf path; points are updated by a
// subtree traversal that prunes at already-covered cells, so each tree node
// is re-visited at most once per level — Õ(n) total update work. Point
// masses live in a Fenwick tree for O(log n) sampling. An optional
// rejection-sampling step accepts a tree-sampled candidate with probability
// (Euclidean D^z to its assigned center) / (tree D^z), tilting the
// distribution toward the true Euclidean one as in the original paper.
// Masses stay fixed between two centers, so one center's candidates are
// i.i.d.: their uniforms are pre-drawn in the serial order, their Fenwick
// descents resolved in branch-free batches, and the generator advanced by
// exactly the values the serial rejection loop would consume.

#ifndef FASTCORESET_CLUSTERING_FAST_KMEANS_PLUS_PLUS_H_
#define FASTCORESET_CLUSTERING_FAST_KMEANS_PLUS_PLUS_H_

#include <cstddef>
#include <vector>

#include "src/clustering/types.h"
#include "src/common/rng.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {

/// Options for FastKMeansPlusPlus.
struct FastKMeansPlusPlusOptions {
  /// Cost exponent: 1 = k-median, 2 = k-means.
  int z = 2;
  /// Quadtree depth cap, in [1, Quadtree::kMaxDepth = 62]. The tree only
  /// deepens where points are close, so a generous cap preserves the
  /// Õ(nd log Δ) adaptive behaviour.
  int max_depth = 60;
  /// Build the quadtree non-adaptively (every point descends to
  /// max_depth), reproducing the O(nd log Δ) embedding cost the paper's
  /// Table 1 measures. Leave false outside that experiment.
  bool full_depth_tree = false;
  /// Accept tree-sampled candidates with probability Euclidean/tree mass
  /// ratio (bounded retries), approximating true-metric D^z seeding.
  bool rejection_sampling = true;
  /// Retry budget per center for rejection sampling. Each retry costs only
  /// O(log n + d); early centers see low acceptance rates (the tree metric
  /// is flat near the root), so the budget is generous. After the budget
  /// the last candidate is accepted, falling back to pure tree sampling.
  int max_rejections = 512;
};

/// Tree-metric D^z seeding of k centers with assignments. `weights` may be
/// empty (unit weights). The returned Clustering's point_costs / total_cost
/// are *Euclidean* costs of the tree-derived assignment (so they can feed
/// sensitivity sampling directly). The centers are pairwise distinct
/// points. Fewer than k are returned only when every point shares a
/// quadtree leaf with a center: the input has fewer than k distinct
/// points, or the depth cap packs distinct points into one leaf.
Clustering FastKMeansPlusPlus(const Matrix& points,
                              const std::vector<double>& weights, size_t k,
                              const FastKMeansPlusPlusOptions& options,
                              Rng& rng);

}  // namespace fastcoreset

#endif  // FASTCORESET_CLUSTERING_FAST_KMEANS_PLUS_PLUS_H_
