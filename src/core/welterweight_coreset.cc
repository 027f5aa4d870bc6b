#include "src/core/welterweight_coreset.h"

#include <cmath>

#include "src/clustering/kmeans_plus_plus.h"
#include "src/core/sensitivity_sampling.h"

namespace fastcoreset {

size_t DefaultWelterweightJ(size_t k) {
  const double lg = std::log2(static_cast<double>(k < 2 ? 2 : k));
  return static_cast<size_t>(std::ceil(lg));
}

Coreset WelterweightCoreset(const Matrix& points,
                            const std::vector<double>& weights, size_t k,
                            size_t j, size_t m, int z, Rng& rng,
                            WorkCounters* work) {
  if (j == 0) j = DefaultWelterweightJ(k);
  const Clustering solution = KMeansPlusPlus(points, weights, j, z, rng, work);
  return SensitivitySamplingFromSolution(points, weights, solution, m, rng);
}

}  // namespace fastcoreset
