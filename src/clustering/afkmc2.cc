#include "src/clustering/afkmc2.h"

#include <cmath>

#include "src/clustering/cost.h"
#include "src/common/fenwick_tree.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

Clustering Afkmc2(const Matrix& points, const std::vector<double>& weights,
                  size_t k, const Afkmc2Options& options, Rng& rng) {
  const size_t n = points.rows();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK(options.z == 1 || options.z == 2);
  FC_CHECK(weights.empty() || weights.size() == n);
  FC_CHECK_GT(options.chain_length, 0u);

  // First center: weight-proportional.
  std::vector<size_t> centers;
  centers.push_back(weights.empty() ? rng.NextIndex(n)
                                    : rng.SampleDiscrete(weights));

  // Proposal q: one O(nd) pass against the first center, mixed with the
  // weight distribution for irreducibility.
  std::vector<double> dist_to_first(n);
  double cost_first = 0.0;
  double total_weight = 0.0;
  for (size_t i = 0; i < n; ++i) {
    dist_to_first[i] =
        DistPow(points.Row(i), points.Row(centers[0]), options.z);
    cost_first += WeightAt(weights, i) * dist_to_first[i];
    total_weight += WeightAt(weights, i);
  }
  std::vector<double> proposal_density(n);
  for (size_t i = 0; i < n; ++i) {
    const double w = WeightAt(weights, i);
    double q = 0.5 * w / total_weight;
    if (cost_first > 0.0) q += 0.5 * w * dist_to_first[i] / cost_first;
    proposal_density[i] = q;
  }
  // The chain's q-distribution is fixed after this point: O(n) bulk
  // build, O(log n) per proposal draw.
  const FenwickTree proposal(proposal_density);

  // dist^z to the current center set, maintained incrementally — but only
  // for points the chain visits (lazy evaluation keeps this sublinear).
  auto dist_to_centers = [&](size_t i) {
    double best = dist_to_first[i];
    for (size_t c = 1; c < centers.size(); ++c) {
      const double d = DistPow(points.Row(i), points.Row(centers[c]),
                               options.z);
      if (d < best) best = d;
    }
    return best;
  };

  for (size_t c = 1; c < k && c < n; ++c) {
    size_t state = proposal.Sample(rng);
    double state_score =
        WeightAt(weights, state) * dist_to_centers(state);
    double state_q = proposal_density[state];
    for (size_t step = 1; step < options.chain_length; ++step) {
      const size_t candidate = proposal.Sample(rng);
      const double candidate_score =
          WeightAt(weights, candidate) * dist_to_centers(candidate);
      const double candidate_q = proposal_density[candidate];
      // Metropolis-Hastings acceptance for target ∝ score, proposal q.
      const double numerator = candidate_score * state_q;
      const double denominator = state_score * candidate_q;
      if (denominator <= 0.0 ||
          rng.NextDouble() * denominator < numerator) {
        state = candidate;
        state_score = candidate_score;
        state_q = candidate_q;
      }
    }
    centers.push_back(state);
  }

  Clustering result;
  result.z = options.z;
  result.centers = Matrix(centers.size(), points.cols());
  for (size_t c = 0; c < centers.size(); ++c) {
    result.centers.CopyRowFrom(points, centers[c], c);
  }
  RefreshAssignment(points, weights, &result);
  return result;
}

}  // namespace fastcoreset
