#include "src/streaming/streamkm.h"

#include "src/clustering/kmeans_plus_plus.h"

namespace fastcoreset {

Coreset StreamKmReduce(const Matrix& points,
                       const std::vector<double>& weights, size_t m,
                       Rng& rng, WorkCounters* work) {
  const size_t n = points.rows();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(m, 0u);
  FC_CHECK(weights.empty() || weights.size() == n);

  if (m >= n) {
    Coreset coreset;
    coreset.indices.resize(n);
    for (size_t i = 0; i < n; ++i) coreset.indices[i] = i;
    coreset.points = points;
    coreset.weights = weights.empty() ? UnitWeights(n) : weights;
    return coreset;
  }

  // D^2-sample m representatives; each input point hands its weight to
  // its nearest representative.
  const Clustering seeding =
      KMeansPlusPlus(points, weights, m, /*z=*/2, rng, work);
  const size_t actual = seeding.centers.rows();
  std::vector<double> rep_weight(actual, 0.0);
  for (size_t i = 0; i < n; ++i) {
    rep_weight[seeding.assignment[i]] += WeightAt(weights, i);
  }

  Coreset coreset;
  coreset.points = seeding.centers;
  coreset.weights = std::move(rep_weight);
  // The centers are input rows, but KMeansPlusPlus does not report which,
  // so the indices are kSyntheticIndex.
  coreset.indices.assign(actual, Coreset::kSyntheticIndex);
  return coreset;
}

}  // namespace fastcoreset
