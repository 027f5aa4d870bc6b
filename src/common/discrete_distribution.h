// Reusable discrete sampling distribution over non-negative weights:
// O(n) (re)build, O(log n) draw, O(log n) single-slot update. This is the
// sampling-facing wrapper around FenwickTree that the seeders and the
// sensitivity sampler share, so a mass that changes one slot at a time
// (k-means++ min-distance updates, k-means‖ round totals, Fast-kmeans++
// tree masses) costs an incremental update instead of the O(n)
// rebuild-and-re-sum that Rng::SampleDiscrete pays per draw.
//
// Mutation and every RNG draw stay serial on the calling thread, so the
// substrate's determinism contract (bit-identical results at any
// FC_THREADS) extends to every consumer. Only the Fenwick descents that
// map drawn targets to slots, which are pure reads, may run on the pool
// (SampleMany). Parallel producers hand their updates over as per-chunk
// batches and apply them on the calling thread — see KMeansPlusPlus for
// the pattern.

#ifndef FASTCORESET_COMMON_DISCRETE_DISTRIBUTION_H_
#define FASTCORESET_COMMON_DISCRETE_DISTRIBUTION_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"

namespace fastcoreset {

/// Incrementally updatable distribution over {0, ..., n-1} with
/// unnormalized non-negative weights. Zero-weight slots are never
/// sampled (FenwickTree::UpperBound steps off them), so consumers can
/// retire a slot — a chosen center, a covered point — by zeroing it.
class DiscreteDistribution {
 public:
  DiscreteDistribution() : tree_(size_t{0}) {}

  /// All-zero distribution over `n` slots.
  explicit DiscreteDistribution(size_t n) : tree_(n) {}

  /// Builds from `weights` (>= 0) in O(n).
  explicit DiscreteDistribution(const std::vector<double>& weights)
      : tree_(weights) {}

  /// Replaces every weight in O(n), reusing storage when sizes match.
  void Assign(const std::vector<double>& weights) { tree_.Assign(weights); }

  /// Resets to an all-zero distribution over `n` slots.
  void Reset(size_t n) { tree_ = FenwickTree(n); }

  size_t size() const { return tree_.size(); }

  /// Weight of slot `i`.
  double Get(size_t i) const { return tree_.Get(i); }

  /// Sets slot `i` to `weight` (>= 0) in O(log n).
  void Set(size_t i, double weight) { tree_.Set(i, weight); }

  /// Total mass, O(log n). Callers that need a cheap emptiness test
  /// compare this against 0 — no O(n) pass involved.
  double Total() const { return tree_.Total(); }

  /// Draws a slot proportional to the weights in O(log n). Total() must
  /// be positive; consumes exactly one rng.NextDouble().
  size_t Sample(Rng& rng) const { return tree_.Sample(rng); }

  /// The same draws as `count` calls of Sample, leaving `rng` in the same
  /// state. The targets are drawn serially on the calling thread; their
  /// descents are resolved in FenwickTree::kBatch lanes, chunks of them
  /// on the pool.
  std::vector<size_t> SampleMany(Rng& rng, size_t count) const {
    std::vector<size_t> draws(count);
    if (count == 0) return draws;
    const double total = Total();
    FC_CHECK_MSG(total > 0.0, "cannot sample from an all-zero FenwickTree");
    std::vector<double> targets(count);
    for (double& target : targets) target = rng.NextDouble() * total;
    ParallelFor(count, [&](size_t begin, size_t end) {
      for (size_t b = begin; b < end; b += FenwickTree::kBatch) {
        const size_t lanes = std::min(FenwickTree::kBatch, end - b);
        tree_.UpperBoundBatch({targets.data() + b, lanes},
                              {draws.data() + b, lanes});
      }
    });
    return draws;
  }

  /// FenwickTree::UpperBoundBatch: the slots `targets` (at most
  /// FenwickTree::kBatch, each in [0, Total())) map to.
  void UpperBoundBatch(std::span<const double> targets,
                       std::span<size_t> out) const {
    tree_.UpperBoundBatch(targets, out);
  }

 private:
  FenwickTree tree_;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_DISCRETE_DISTRIBUTION_H_
