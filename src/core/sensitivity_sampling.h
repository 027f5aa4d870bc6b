// Standard sensitivity sampling (Feldman-Langberg / Langberg-Schulman):
// seed a full k-center candidate solution with k-means++ (O(nkd) — the
// runtime bottleneck Fast-Coresets remove), then importance-sample.
// This is the paper's accuracy baseline (the "recommended coreset method"
// of Schwiegelshohn & Sheikh-Omar, ESA'22).

#ifndef FASTCORESET_CORE_SENSITIVITY_SAMPLING_H_
#define FASTCORESET_CORE_SENSITIVITY_SAMPLING_H_

#include "src/clustering/types.h"
#include "src/common/work_counters.h"
#include "src/core/coreset.h"

namespace fastcoreset {

/// Sensitivity-sampling coreset of size m supporting k clusters under
/// exponent z. Runs k-means++/k-median++ internally (O(nkd)) and adds its
/// work to `work` when non-null.
Coreset SensitivitySamplingCoreset(const Matrix& points,
                                   const std::vector<double>& weights,
                                   size_t k, size_t m, int z, Rng& rng,
                                   WorkCounters* work = nullptr);

/// Variant that reuses a precomputed candidate solution (any clustering
/// with assignments); this is the common tail of all j-center samplers.
Coreset SensitivitySamplingFromSolution(const Matrix& points,
                                        const std::vector<double>& weights,
                                        const Clustering& solution, size_t m,
                                        Rng& rng);

}  // namespace fastcoreset

#endif  // FASTCORESET_CORE_SENSITIVITY_SAMPLING_H_
