// Sensitivity (importance) scores and importance sampling — the shared
// machinery behind lightweight, welterweight, standard-sensitivity and
// Fast-Coreset constructions.
//
// Given an α-approximate solution C with assignment σ, the importance of a
// point (eq. 1, Feldman-Langberg) in the weighted generalization is
//   σ_C(p) = w_p * cost(p, C_p) / cost(C_p, c_p)  +  w_p / W(C_p),
// where C_p is p's cluster, c_p its center and W(C_p) the cluster's weight.
// Sampling m points proportional to σ_C with weights
// w'_p = w_p * (Σ σ) / (m σ_C(p)) yields an unbiased cost estimator, and a
// strong coreset once m = Õ(k ε^{-2z-2}) (Fact 3.1).

#ifndef FASTCORESET_CORE_IMPORTANCE_H_
#define FASTCORESET_CORE_IMPORTANCE_H_

#include <vector>

#include "src/clustering/types.h"
#include "src/core/coreset.h"

namespace fastcoreset {

/// Per-point importance scores (unnormalized sampling distribution).
struct ImportanceScores {
  std::vector<double> sigma;
  double total = 0.0;
};

/// Computes the weighted sensitivity upper bounds of eq. (1) for the
/// solution (`centers`, `assignment`) under exponent z. `weights` may be
/// empty. Costs are evaluated in the space of `points` — Algorithm 1
/// evaluates them in the *original* space even when the solution was found
/// on a projected/spread-reduced proxy.
ImportanceScores ComputeSensitivities(const Matrix& points,
                                      const std::vector<double>& weights,
                                      const std::vector<size_t>& assignment,
                                      const Matrix& centers, int z);

/// Draws m points with replacement proportional to `scores`, merging
/// repeated draws by summing their weights. Weight of a draw of p is
/// w_p * total / (m * sigma_p), making the coreset cost estimator unbiased.
/// The m draws are taken serially (they alone consume `rng`); sorting them
/// gives the coreset's rows in ascending point order with one row per
/// distinct point. The rows are then gathered and weighted on the parallel
/// substrate, so the result is bit-identical at any thread count.
Coreset SampleByImportance(const Matrix& points,
                           const std::vector<double>& weights,
                           const ImportanceScores& scores, size_t m,
                           Rng& rng);

/// Optional debiasing of Algorithm 1 (lines 7–8): appends each cluster
/// center to the coreset with weight max(0, (1+eps) W_i - Ŵ_i), where Ŵ_i
/// is the sampled weight that landed in cluster i, so that per-cluster
/// weights are preserved (up to 1+eps) rather than just unbiased.
void ApplyCenterCorrection(const Matrix& points,
                           const std::vector<double>& weights,
                           const std::vector<size_t>& assignment,
                           const Matrix& centers, double eps,
                           Coreset* coreset);

}  // namespace fastcoreset

#endif  // FASTCORESET_CORE_IMPORTANCE_H_
