// Merge-&-reduce streaming composition (Bentley-Saxe'80, first applied to
// clustering coresets by Har-Peled & Mazumdar'04; Section 5.4 of the
// paper).
//
// The stream is consumed in blocks. Each block is compressed to size m by
// a black-box CoresetBuilder; compressed blocks are combined like a binary
// counter: two size-m coresets at the same level are concatenated (merge)
// and re-compressed to size m (reduce), producing one coreset at the next
// level. At any time there is at most one coreset per level — O(log b)
// memory for b blocks — and Finalize() concatenates the surviving levels
// and runs one last reduction. Because the coreset property composes
// (a coreset of a union of coresets is a coreset of the union), the result
// is a valid coreset of the whole stream, with stacked (1+ε) error per
// level.

#ifndef FASTCORESET_STREAMING_MERGE_REDUCE_H_
#define FASTCORESET_STREAMING_MERGE_REDUCE_H_

#include <optional>
#include <vector>

#include "src/core/coreset.h"

namespace fastcoreset {

/// Incremental merge-&-reduce compressor over a point stream.
class StreamingCompressor {
 public:
  /// `builder` compresses any weighted point set to a requested size;
  /// `m` is the per-level coreset size. `rng` must outlive the compressor.
  StreamingCompressor(CoresetBuilder builder, size_t m, Rng* rng);

  /// Consumes one block of the stream (weights may be empty = unit).
  /// Indices in the final coreset refer to global stream positions.
  void Push(const Matrix& batch, const std::vector<double>& weights = {});

  /// Concatenates all level coresets and reduces once more to size m.
  /// The compressor may continue receiving Push() calls afterwards (the
  /// internal state is not consumed).
  Coreset Finalize() const;

  /// Number of occupied levels (exposed for tests: should be the number
  /// of ones in the binary representation of the block count).
  size_t OccupiedLevels() const;

  /// Total number of blocks consumed.
  size_t BlocksConsumed() const { return blocks_; }

  /// Builder invocations beyond the per-block compressions (level merges
  /// plus the latest Finalize() reduction) — the compression overhead
  /// merge-&-reduce pays for bounded memory. Finalize() contributes a
  /// snapshot, not an accumulation, so callers that finalize repeatedly
  /// (periodic summaries of a live stream) are not over-counted.
  size_t ReduceOps() const { return reduce_ops_ + finalize_ops_; }

 private:
  /// Binary-counter carry: installs a coreset at `level`, merging upward
  /// while the slot is occupied.
  void Carry(Coreset coreset, size_t level);
  /// Merges two coresets by concatenation and reduces to m, preserving
  /// global indices.
  Coreset MergeReduce(const Coreset& a, const Coreset& b);

  CoresetBuilder builder_;
  size_t m_;
  Rng* rng_;
  size_t blocks_ = 0;
  size_t global_offset_ = 0;
  /// ReduceOps() counters. finalize_ops_ is overwritten (not accumulated)
  /// per Finalize() call, and mutable because Finalize() is const yet runs
  /// one more reduction.
  size_t reduce_ops_ = 0;
  mutable size_t finalize_ops_ = 0;
  std::vector<std::optional<Coreset>> levels_;
};

/// One-shot convenience: stream `points` through a StreamingCompressor in
/// blocks of `block_size` and finalize.
Coreset StreamingCompress(const Matrix& points,
                          const std::vector<double>& weights,
                          const CoresetBuilder& builder, size_t block_size,
                          size_t m, Rng& rng);

}  // namespace fastcoreset

#endif  // FASTCORESET_STREAMING_MERGE_REDUCE_H_
