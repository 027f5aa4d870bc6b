#include "src/core/sensitivity_sampling.h"

#include "src/clustering/kmeans_plus_plus.h"
#include "src/core/importance.h"

namespace fastcoreset {

Coreset SensitivitySamplingCoreset(const Matrix& points,
                                   const std::vector<double>& weights,
                                   size_t k, size_t m, int z, Rng& rng,
                                   WorkCounters* work) {
  const Clustering solution = KMeansPlusPlus(points, weights, k, z, rng, work);
  return SensitivitySamplingFromSolution(points, weights, solution, m, rng);
}

Coreset SensitivitySamplingFromSolution(const Matrix& points,
                                        const std::vector<double>& weights,
                                        const Clustering& solution, size_t m,
                                        Rng& rng) {
  const ImportanceScores scores = ComputeSensitivities(
      points, weights, solution.assignment, solution.centers, solution.z);
  return SampleByImportance(points, weights, scores, m, rng);
}

}  // namespace fastcoreset
