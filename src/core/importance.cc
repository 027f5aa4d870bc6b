#include "src/core/importance.h"

#include <algorithm>
#include <cmath>

#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

ImportanceScores ComputeSensitivities(const Matrix& points,
                                      const std::vector<double>& weights,
                                      const std::vector<size_t>& assignment,
                                      const Matrix& centers, int z) {
  const size_t n = points.rows();
  const size_t k = centers.rows();
  FC_CHECK_EQ(assignment.size(), n);
  FC_CHECK(z == 1 || z == 2);
  FC_CHECK(weights.empty() || weights.size() == n);

  // The O(nd) distance pass runs on the parallel substrate; the O(n)
  // cluster accumulations stay serial so their summation order (and thus
  // every downstream sampling decision) is thread-invariant.
  std::vector<double> point_cost(n);
  ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const size_t c = assignment[i];
      FC_DCHECK(c < k);
      point_cost[i] = DistPow(points.Row(i), centers.Row(c), z);
    }
  });
  std::vector<double> cluster_cost(k, 0.0);
  std::vector<double> cluster_weight(k, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = assignment[i];
    const double w = WeightAt(weights, i);
    cluster_cost[c] += w * point_cost[i];
    cluster_weight[c] += w;
  }

  ImportanceScores scores;
  scores.sigma.resize(n);
  scores.total = ParallelReduce(n, [&](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const size_t c = assignment[i];
      const double w = WeightAt(weights, i);
      double sigma = 0.0;
      if (cluster_cost[c] > 0.0) sigma += w * point_cost[i] / cluster_cost[c];
      // cluster_weight > 0 because point i itself belongs to the cluster
      // (w may be 0 for zero-weight points; then sigma is 0, correctly).
      if (cluster_weight[c] > 0.0) sigma += w / cluster_weight[c];
      scores.sigma[i] = sigma;
      partial += sigma;
    }
    return partial;
  });
  return scores;
}

Coreset SampleByImportance(const Matrix& points,
                           const std::vector<double>& weights,
                           const ImportanceScores& scores, size_t m,
                           Rng& rng) {
  const size_t n = points.rows();
  FC_CHECK_EQ(scores.sigma.size(), n);
  FC_CHECK_GT(m, 0u);
  FC_CHECK_MSG(scores.total > 0.0, "importance scores sum to zero");

  // O(n) bulk build of the sigma distribution, then m draws at O(log n)
  // each, their descents batched on the pool. A sigma == 0 point owns a
  // zero-width interval of the cumulative distribution and its coreset
  // weight would divide by sigma, so the distribution's zero-slot stepping
  // (FenwickTree::UpperBound) attributes any boundary-drifted target to
  // the nearest positive-sigma point.
  const FenwickTree distribution(scores.sigma);

  // Draws in rng order, then sorted: runs of equal indices are the
  // repeated draws of one point, in ascending point order.
  std::vector<size_t> draws = distribution.SampleMany(rng, m);
  std::sort(draws.begin(), draws.end());
  std::vector<size_t> run_starts;
  for (size_t r = 0; r < m; ++r) {
    if (r == 0 || draws[r] != draws[r - 1]) run_starts.push_back(r);
  }
  const size_t rows = run_starts.size();
  run_starts.push_back(m);

  Coreset coreset;
  coreset.indices.resize(rows);
  coreset.weights.resize(rows);
  coreset.points = Matrix(rows, points.cols());
  const double md = static_cast<double>(m);
  ParallelFor(rows, [&](size_t begin, size_t end) {
    for (size_t row = begin; row < end; ++row) {
      const size_t idx = draws[run_starts[row]];
      const size_t count = run_starts[row + 1] - run_starts[row];
      coreset.indices[row] = idx;
      coreset.points.CopyRowFrom(points, idx, row);
      const double w = WeightAt(weights, idx);
      coreset.weights[row] = static_cast<double>(count) * w * scores.total /
                             (md * scores.sigma[idx]);
    }
  });
  return coreset;
}

void ApplyCenterCorrection(const Matrix& points,
                           const std::vector<double>& weights,
                           const std::vector<size_t>& assignment,
                           const Matrix& centers, double eps,
                           Coreset* coreset) {
  FC_CHECK(coreset != nullptr);
  const size_t k = centers.rows();

  std::vector<double> cluster_weight(k, 0.0);
  for (size_t i = 0; i < points.rows(); ++i) {
    cluster_weight[assignment[i]] += WeightAt(weights, i);
  }
  std::vector<double> sampled_weight(k, 0.0);
  for (size_t r = 0; r < coreset->size(); ++r) {
    const size_t src = coreset->indices[r];
    if (src == Coreset::kSyntheticIndex) continue;
    sampled_weight[assignment[src]] += coreset->weights[r];
  }

  Matrix appended(0, points.cols());
  for (size_t c = 0; c < k; ++c) {
    if (cluster_weight[c] <= 0.0) continue;
    const double correction =
        (1.0 + eps) * cluster_weight[c] - sampled_weight[c];
    if (correction <= 0.0) continue;
    Matrix one(1, points.cols());
    one.CopyRowFrom(centers, c, 0);
    appended.AppendRows(one);
    coreset->indices.push_back(Coreset::kSyntheticIndex);
    coreset->weights.push_back(correction);
  }
  coreset->points.AppendRows(appended);
}

}  // namespace fastcoreset
