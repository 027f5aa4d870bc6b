#include "src/eval/quality_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/clustering/kmeans_plus_plus.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

std::string QualityReport::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "distortion=%.3f multi_probe=%.3f weight_err=%.3f%% "
                "size=%zu coverage=%zu/%zu min_cluster_mass=%.2f => %s",
                distortion, multi_probe, 100.0 * weight_error, coreset_size,
                clusters_covered, clusters_total, min_cluster_mass,
                Passes() ? "PASS" : "FAIL");
  return buf;
}

QualityReport EvaluateCoreset(const Matrix& points,
                              const std::vector<double>& weights,
                              const Coreset& coreset,
                              const DistortionOptions& options,
                              int extra_probes, Rng& rng) {
  QualityReport report;
  report.coreset_size = coreset.size();

  double total_weight = 0.0;
  if (weights.empty()) {
    total_weight = static_cast<double>(points.rows());
  } else {
    for (double w : weights) total_weight += w;
  }
  report.weight_error =
      total_weight > 0.0
          ? std::fabs(coreset.TotalWeight() - total_weight) / total_weight
          : 0.0;

  report.distortion =
      CoresetDistortion(points, weights, coreset, options, rng);
  report.multi_probe =
      extra_probes > 0
          ? MaxDistortionOverProbes(points, weights, coreset, options,
                                    extra_probes, rng)
          : report.distortion;

  // Reference solution on the full data; per-cluster coverage = coreset
  // weight assigned to each reference cluster vs the cluster's true mass.
  const Clustering reference =
      KMeansPlusPlus(points, weights, options.k, options.z, rng);
  const size_t k = reference.centers.rows();
  report.clusters_total = k;

  std::vector<double> true_mass(k, 0.0);
  for (size_t i = 0; i < points.rows(); ++i) {
    true_mass[reference.assignment[i]] += WeightAt(weights, i);
  }
  std::vector<double> coreset_mass(k, 0.0);
  for (size_t r = 0; r < coreset.size(); ++r) {
    const NearestCenter nearest =
        FindNearestCenter(coreset.points.Row(r), reference.centers);
    coreset_mass[nearest.index] += coreset.weights[r];
  }

  report.min_cluster_mass = 1e300;
  for (size_t c = 0; c < k; ++c) {
    if (true_mass[c] <= 0.0) {
      --report.clusters_total;  // Empty reference cluster: not a target.
      continue;
    }
    if (coreset_mass[c] > 0.0) ++report.clusters_covered;
    report.min_cluster_mass =
        std::min(report.min_cluster_mass, coreset_mass[c] / true_mass[c]);
  }
  if (report.min_cluster_mass == 1e300) report.min_cluster_mass = 0.0;
  return report;
}

}  // namespace fastcoreset
