#include "src/core/fast_coreset.h"

#include <vector>

#include "src/clustering/kmedian.h"
#include "src/clustering/tree_greedy.h"
#include "src/common/timer.h"
#include "src/core/importance.h"
#include "src/geometry/jl_projection.h"
#include "src/spread/crude_approx.h"
#include "src/spread/reduce_spread.h"

namespace fastcoreset {

namespace {

/// Step 3: replace every cluster's seeded center by its 1-mean (z = 2) or
/// 1-median (z = 1) over the cluster's points in the given space. An
/// unused cluster keeps a row of zeros.
Matrix RefineCenters(const Matrix& points, const std::vector<double>& weights,
                     const std::vector<size_t>& assignment, size_t k, int z) {
  const size_t d = points.cols();
  Matrix centers(k, d);
  if (z == 2) {
    // One pass in row order: each cluster's sums still add its members in
    // ascending index order, as a per-cluster gather would.
    std::vector<double> total(k, 0.0);
    for (size_t i = 0; i < points.rows(); ++i) {
      const size_t c = assignment[i];
      const double w = WeightAt(weights, i);
      total[c] += w;
      const auto row = points.Row(i);
      auto center = centers.Row(c);
      for (size_t j = 0; j < d; ++j) center[j] += w * row[j];
    }
    for (size_t c = 0; c < k; ++c) {
      if (total[c] <= 0.0) continue;
      auto center = centers.Row(c);
      for (size_t j = 0; j < d; ++j) center[j] /= total[c];
    }
    return centers;
  }
  std::vector<std::vector<size_t>> members(k);
  for (size_t i = 0; i < points.rows(); ++i) {
    members[assignment[i]].push_back(i);
  }
  for (size_t c = 0; c < k; ++c) {
    if (members[c].empty()) continue;
    const std::vector<double> median =
        GeometricMedian(points, weights, members[c]);
    auto center = centers.Row(c);
    for (size_t j = 0; j < d; ++j) center[j] = median[j];
  }
  return centers;
}

}  // namespace

Coreset FastCoreset(const Matrix& points, const std::vector<double>& weights,
                    size_t k, size_t m, int z,
                    const FastCoresetOptions& options, Rng& rng,
                    std::vector<StageTime>* stages) {
  FC_CHECK_GT(points.rows(), 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK_GT(m, 0u);
  FC_CHECK(z == 1 || z == 2);
  Timer stage_timer;
  // Appends the stage that just finished and restarts the clock.
  const auto end_stage = [stages, &stage_timer](const char* name) {
    if (stages == nullptr) return;
    stages->push_back({name, stage_timer.Seconds()});
    stage_timer.Reset();
  };

  // Step 1: dimension reduction. The seeding runs on the proxy; all costs
  // and sampled points come from the original space.
  const Matrix* seed_space = &points;
  Matrix projected;
  if (options.use_jl) {
    const size_t target = JlTargetDim(k, options.jl_eps, points.cols());
    if (target < points.cols()) {
      projected = JlProject(points, target, rng);
      seed_space = &projected;
    }
  }
  end_stage("jl_projection");

  // Step 2b (optional): spread reduction on the seeding proxy. Rows of the
  // reduced set correspond 1:1 to input rows, so assignments carry over.
  Matrix reduced;
  if (options.use_spread_reduction) {
    const CrudeApproxResult crude = CrudeApprox(*seed_space, k, rng);
    if (crude.upper_bound > 0.0) {
      SpreadReduction reduction =
          ReduceSpread(*seed_space, crude.upper_bound, 64.0, rng);
      reduced = std::move(reduction.points);
      seed_space = &reduced;
    }
    end_stage("spread_reduction");
  }

  // Step 2: seed an approximate solution with assignments.
  Clustering solution;
  if (options.seeder == FastCoresetSeeder::kTreeGreedy) {
    TreeGreedyOptions greedy;
    greedy.z = z;
    greedy.max_depth = options.seeding.max_depth;
    solution = TreeGreedySeeding(*seed_space, weights, k, greedy, rng);
  } else {
    FastKMeansPlusPlusOptions seeding = options.seeding;
    seeding.z = z;
    solution = FastKMeansPlusPlus(*seed_space, weights, k, seeding, rng);
  }
  end_stage("seeding");

  // Step 3: refine centers and evaluate sensitivities in the original
  // space (the assignment is reused; only the cost geometry changes).
  const Matrix centers = RefineCenters(points, weights, solution.assignment,
                                       solution.centers.rows(), z);
  const ImportanceScores scores =
      ComputeSensitivities(points, weights, solution.assignment, centers, z);
  end_stage("sensitivities");

  // Step 4: importance-sample and weight.
  Coreset coreset = SampleByImportance(points, weights, scores, m, rng);
  if (options.center_correction) {
    ApplyCenterCorrection(points, weights, solution.assignment, centers,
                          options.correction_eps, &coreset);
  }
  end_stage("sampling");
  return coreset;
}

Coreset CoresetFromAssignment(const Matrix& points,
                              const std::vector<double>& weights,
                              const std::vector<size_t>& assignment,
                              size_t num_clusters, size_t m, int z,
                              Rng& rng) {
  FC_CHECK_EQ(assignment.size(), points.rows());
  FC_CHECK_GT(num_clusters, 0u);
  FC_CHECK_GT(m, 0u);
  for (const size_t c : assignment) FC_CHECK_LT(c, num_clusters);
  const Matrix centers =
      RefineCenters(points, weights, assignment, num_clusters, z);
  const ImportanceScores scores =
      ComputeSensitivities(points, weights, assignment, centers, z);
  return SampleByImportance(points, weights, scores, m, rng);
}

}  // namespace fastcoreset
