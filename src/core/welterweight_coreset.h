// Welterweight coresets: the paper's interpolation knob between uniform
// sampling and full sensitivity sampling. Importances come from a j-center
// candidate solution with 1 <= j <= k: j = 1 recovers lightweight
// coresets, j = k recovers standard sensitivity sampling, and intermediate
// j trades O(njd) seeding time against robustness to cluster imbalance
// (Table 7: larger γ imbalance needs larger j).

#ifndef FASTCORESET_CORE_WELTERWEIGHT_CORESET_H_
#define FASTCORESET_CORE_WELTERWEIGHT_CORESET_H_

#include "src/common/work_counters.h"
#include "src/core/coreset.h"

namespace fastcoreset {

/// Welterweight coreset of size m using a j-means++ candidate solution.
/// `j` = 0 picks the paper's default j = ceil(log2 k). `k` is only used
/// for that default. The seeding's work is added to `work` when non-null.
Coreset WelterweightCoreset(const Matrix& points,
                            const std::vector<double>& weights, size_t k,
                            size_t j, size_t m, int z, Rng& rng,
                            WorkCounters* work = nullptr);

/// The paper's default candidate-solution size: ceil(log2 k), at least 1.
size_t DefaultWelterweightJ(size_t k);

}  // namespace fastcoreset

#endif  // FASTCORESET_CORE_WELTERWEIGHT_CORESET_H_
