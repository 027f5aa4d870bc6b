// Fenwick (binary indexed) tree over non-negative doubles: the one
// discrete sampling structure, with O(n) bulk build, O(log n) draw and
// O(log n) single-slot update. The seeders and the sensitivity sampler
// share it, so a mass that changes one slot at a time (k-means++
// min-distance updates, k-means‖ round totals, Fast-kmeans++ tree masses)
// costs an incremental update instead of the O(n) rebuild-and-re-sum that
// Rng::SampleDiscrete pays per draw.
//
// Mutation and every RNG draw stay serial on the calling thread, so the
// substrate's determinism contract (bit-identical results at any
// FC_THREADS) extends to every consumer. Only the descents that map drawn
// targets to slots, which are pure reads, may run on the pool
// (SampleMany). Parallel producers hand their updates over as per-chunk
// batches and apply them on the calling thread — see KMeansPlusPlus for
// the pattern.

#ifndef FASTCORESET_COMMON_FENWICK_TREE_H_
#define FASTCORESET_COMMON_FENWICK_TREE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace fastcoreset {

/// Prefix-sum tree supporting point updates and sampling proportional to
/// the stored (non-negative) values. Zero-weight slots are never sampled
/// (UpperBound steps off them), so consumers can retire a slot — a chosen
/// center, a covered point — by zeroing it.
class FenwickTree {
 public:
  /// Creates a tree over `n` slots, all initialized to zero.
  explicit FenwickTree(size_t n) : values_(n, 0.0), tree_(n + 1, 0.0) {}

  /// Creates a tree holding `values` (>= 0) via the O(n) bulk build —
  /// n single-slot Sets would cost O(n log n).
  explicit FenwickTree(const std::vector<double>& values) { Assign(values); }

  /// Replaces the whole tree with `values` (>= 0) in O(n), reusing the
  /// existing storage when the size matches.
  void Assign(const std::vector<double>& values) {
    values_ = values;
    tree_.assign(values_.size() + 1, 0.0);
    for (size_t j = 1; j < tree_.size(); ++j) {
      FC_DCHECK(values_[j - 1] >= 0.0);
      tree_[j] += values_[j - 1];
      const size_t parent = j + (j & (~j + 1));
      if (parent < tree_.size()) tree_[parent] += tree_[j];
    }
  }

  size_t size() const { return values_.size(); }

  /// Current value of slot `i`.
  double Get(size_t i) const {
    FC_DCHECK(i < values_.size());
    return values_[i];
  }

  /// Sets slot `i` to `value` (>= 0).
  void Set(size_t i, double value) {
    FC_DCHECK(i < values_.size());
    FC_DCHECK(value >= 0.0);
    const double delta = value - values_[i];
    values_[i] = value;
    for (size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
      tree_[j] += delta;
    }
  }

  /// Sum of slots [0, i).
  double PrefixSum(size_t i) const {
    FC_DCHECK(i <= values_.size());
    double sum = 0.0;
    for (size_t j = i; j > 0; j -= j & (~j + 1)) sum += tree_[j];
    return sum;
  }

  /// Total mass, O(log n). Callers that need a cheap emptiness test
  /// compare this against 0 — no O(n) pass involved.
  double Total() const { return PrefixSum(values_.size()); }

  /// Most targets one UpperBoundBatch call resolves.
  static constexpr size_t kBatch = 64;

  /// Smallest index i such that the prefix sum through slot i exceeds
  /// `target`. Requires 0 <= target < Total(). Skips zero-weight slots.
  ///
  /// One serial descent: its branches let the core speculate down the
  /// tree, which a lone branch-free descent cannot, so a single draw
  /// stays on this path.
  size_t UpperBound(double target) const {
    size_t pos = 0;
    size_t mask = 1;
    while ((mask << 1) <= values_.size()) mask <<= 1;
    for (; mask > 0; mask >>= 1) {
      const size_t next = pos + mask;
      if (next < tree_.size() && tree_[next] <= target) {
        target -= tree_[next];
        pos = next;
      }
    }
    return StepOffZeroMass(pos);
  }

  /// UpperBound of each of `targets` (at most kBatch) into `out`, with
  /// results identical to one UpperBound call per target. The descents
  /// run level by level across all lanes, so up to kBatch independent
  /// loads are in flight instead of one chain of dependent ones. Each
  /// lane is branch-free: a random target makes every level's "take this
  /// node" decision a coin flip that a branch would mispredict.
  void UpperBoundBatch(std::span<const double> targets,
                       std::span<size_t> out) const;

  /// Samples an index proportional to the stored values. Total() must be > 0.
  size_t Sample(Rng& rng) const {
    const double total = Total();
    FC_CHECK_MSG(total > 0.0, "cannot sample from an all-zero FenwickTree");
    return UpperBound(rng.NextDouble() * total);
  }

  /// The same draws as `count` calls of Sample, leaving `rng` in the same
  /// state. The targets are drawn serially on the calling thread; their
  /// descents are resolved in kBatch lanes, chunks of them on the pool.
  std::vector<size_t> SampleMany(Rng& rng, size_t count) const;

 private:
  /// Maps a descent's landing slot `pos` (the count of slots whose
  /// cumulative mass is <= target) to the sampled index. Floating-point
  /// drift (target rounding up to Total()) can push pos past the end or
  /// onto a slot whose own mass is zero — a slot that exact arithmetic
  /// can never select and whose selection corrupts the sampling
  /// distribution (e.g. a covered point in Fast-kmeans++). Clamp, then
  /// step to the nearest positive slot: backward first (a zero slot
  /// shares its prefix sum with its predecessor, so the overshot mass
  /// belongs to an earlier slot), forward only if the whole prefix is
  /// massless.
  size_t StepOffZeroMass(size_t pos) const {
    if (pos >= values_.size()) pos = values_.size() - 1;
    if (values_[pos] != 0.0) return pos;
    size_t back = pos;
    while (back > 0 && values_[back] == 0.0) --back;
    if (values_[back] > 0.0) return back;
    size_t fwd = pos;
    while (fwd + 1 < values_.size() && values_[fwd] == 0.0) ++fwd;
    return fwd;
  }

  std::vector<double> values_;
  std::vector<double> tree_;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_FENWICK_TREE_H_
