#include "src/streaming/merge_reduce.h"

#include <utility>

namespace fastcoreset {

namespace {

/// Rewrites builder-local indices (into the points it was fed) through a
/// source-index table so the coreset refers to global stream positions.
void TranslateIndices(const std::vector<size_t>& source_of_row,
                      Coreset* coreset) {
  for (size_t& idx : coreset->indices) {
    if (idx == Coreset::kSyntheticIndex) continue;
    FC_CHECK_LT(idx, source_of_row.size());
    idx = source_of_row[idx];
  }
}

}  // namespace

StreamingCompressor::StreamingCompressor(CoresetBuilder builder, size_t m,
                                         Rng* rng)
    : builder_(std::move(builder)), m_(m), rng_(rng) {
  FC_CHECK(rng_ != nullptr);
  FC_CHECK_GT(m_, 0u);
}

void StreamingCompressor::Push(const Matrix& batch,
                               const std::vector<double>& weights) {
  FC_CHECK_GT(batch.rows(), 0u);
  Coreset block = builder_(batch, weights, m_, *rng_);
  // Builder indices are batch-relative; shift them to stream positions.
  for (size_t& idx : block.indices) {
    if (idx != Coreset::kSyntheticIndex) idx += global_offset_;
  }
  global_offset_ += batch.rows();
  ++blocks_;
  Carry(std::move(block), 0);
}

void StreamingCompressor::Carry(Coreset coreset, size_t level) {
  if (levels_.size() <= level) levels_.resize(level + 1);
  if (!levels_[level].has_value()) {
    levels_[level] = std::move(coreset);
    return;
  }
  Coreset merged = MergeReduce(*levels_[level], coreset);
  levels_[level].reset();
  Carry(std::move(merged), level + 1);
}

Coreset StreamingCompressor::MergeReduce(const Coreset& a,
                                         const Coreset& b) {
  Matrix merged_points = a.points;
  merged_points.AppendRows(b.points);
  std::vector<double> merged_weights = a.weights;
  merged_weights.insert(merged_weights.end(), b.weights.begin(),
                        b.weights.end());
  std::vector<size_t> source_of_row = a.indices;
  source_of_row.insert(source_of_row.end(), b.indices.begin(),
                       b.indices.end());

  ++reduce_ops_;
  Coreset reduced = builder_(merged_points, merged_weights, m_, *rng_);
  TranslateIndices(source_of_row, &reduced);
  return reduced;
}

Coreset StreamingCompressor::Finalize() const {
  Matrix all_points;
  std::vector<double> all_weights;
  std::vector<size_t> source_of_row;
  for (const auto& level : levels_) {
    if (!level.has_value()) continue;
    all_points.AppendRows(level->points);
    all_weights.insert(all_weights.end(), level->weights.begin(),
                       level->weights.end());
    source_of_row.insert(source_of_row.end(), level->indices.begin(),
                         level->indices.end());
  }
  FC_CHECK_MSG(all_points.rows() > 0, "Finalize() before any Push()");

  finalize_ops_ = 1;
  Coreset final_coreset = builder_(all_points, all_weights, m_, *rng_);
  TranslateIndices(source_of_row, &final_coreset);
  return final_coreset;
}

size_t StreamingCompressor::OccupiedLevels() const {
  size_t count = 0;
  for (const auto& level : levels_) {
    if (level.has_value()) ++count;
  }
  return count;
}

Coreset StreamingCompress(const Matrix& points,
                          const std::vector<double>& weights,
                          const CoresetBuilder& builder, size_t block_size,
                          size_t m, Rng& rng) {
  FC_CHECK_GT(block_size, 0u);
  FC_CHECK(weights.empty() || weights.size() == points.rows());
  StreamingCompressor compressor(builder, m, &rng);
  for (size_t start = 0; start < points.rows(); start += block_size) {
    const size_t end = std::min(points.rows(), start + block_size);
    std::vector<size_t> rows(end - start);
    for (size_t i = start; i < end; ++i) rows[i - start] = i;
    Matrix batch = points.SelectRows(rows);
    std::vector<double> batch_weights;
    if (!weights.empty()) {
      batch_weights.assign(weights.begin() + static_cast<long>(start),
                           weights.begin() + static_cast<long>(end));
    }
    compressor.Push(batch, batch_weights);
  }
  return compressor.Finalize();
}

}  // namespace fastcoreset
