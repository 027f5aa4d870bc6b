// Group sampling (Cohen-Addad, Saulpic, Schwiegelshohn, STOC'21): the
// coreset construction with optimal size Õ(k ε^{-z-2}) — a factor ε^{-z}
// smaller than sensitivity sampling.
//
// The paper under reproduction cites it (Fact 3.1 uses its guarantee) but
// excludes it from experiments because the original is a theoretical
// device layered on sensitivity sampling. We implement the practical core
// of the idea as an extension:
//
//   Given an approximate solution with clusters C_i and per-cluster
//   average cost Δ_i = cost(C_i) / W(C_i):
//   1. *Close* points — cost(p) <= (ε/8)^z Δ_i — are represented by their
//      center: each cluster contributes one synthetic representative at
//      its center carrying the close points' total weight. (Moving a
//      close point to its center perturbs any solution's cost by at most
//      an ε-fraction of the cluster's average cost.)
//   2. *Outer* points — cost(p) >= (8/ε)^z Δ_i — carry so much individual
//      cost that they are importance-sampled proportional to cost.
//   3. *Middle* points are partitioned into rings R_j (cost within
//      [2^j Δ_i, 2^{j+1} Δ_i)). Costs inside a ring agree within a factor
//      2, so sampling *uniformly by weight within each ring* has bounded
//      variance; each ring's sampling budget is proportional to its total
//      cost. This is the "group" structure: variance control through cost
//      homogeneity instead of per-point importance.
//
// All three parts use unbiased weights, so cost estimates remain unbiased.

#ifndef FASTCORESET_CORE_GROUP_SAMPLING_H_
#define FASTCORESET_CORE_GROUP_SAMPLING_H_

#include "src/clustering/types.h"
#include "src/common/work_counters.h"
#include "src/core/coreset.h"

namespace fastcoreset {

/// Method knobs for group sampling; k, m and z are arguments. Fields()
/// names each knob once, as in FastCoresetOptions.
struct GroupSamplingOptions {
  double eps = 0.5;  ///< Ring-threshold parameter, in (0, 8).

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) { f("eps", self.eps); }
};

/// Builds a group-sampling coreset with a total budget of `m >= 1` rows,
/// using a fresh k-means++ candidate solution of `k` clusters under cost
/// exponent `z`. Close points surface as synthetic center representatives
/// (indices = Coreset::kSyntheticIndex). The seeding's work is added to
/// `work` when non-null.
Coreset GroupSamplingCoreset(const Matrix& points,
                             const std::vector<double>& weights, size_t k,
                             size_t m, int z,
                             const GroupSamplingOptions& options, Rng& rng,
                             WorkCounters* work = nullptr);

/// Variant reusing a precomputed solution with assignments.
Coreset GroupSamplingFromSolution(const Matrix& points,
                                  const std::vector<double>& weights,
                                  const Clustering& solution, size_t m, int z,
                                  const GroupSamplingOptions& options,
                                  Rng& rng);

}  // namespace fastcoreset

#endif  // FASTCORESET_CORE_GROUP_SAMPLING_H_
