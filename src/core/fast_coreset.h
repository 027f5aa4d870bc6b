// Fast-Coreset (Algorithm 1): the paper's headline Õ(nd) strong-coreset
// construction for k-means and k-median.
//
// Pipeline:
//   1. Johnson-Lindenstrauss embed P into Õ(log k) dimensions.
//   2. Seed an O(polylog k)-approximate solution *with assignments* using
//      Fast-kmeans++ (quadtree D^z sampling) — Õ(nd log Δ).
//   2b. (optional, Section 4) Crude-Approx + Reduce-Spread first, which
//      caps the effective spread at poly(n, d, log Δ) and turns the log Δ
//      factor into log log Δ (Theorem 4.6).
//   3. Refine each cluster's center to its 1-mean / 1-median in the
//      *original* space and compute the sensitivities of eq. (1) there.
//   4. Importance-sample m points; weight them unbiasedly (optionally add
//      the (1+ε)|C_i| − |Ĉ_i| center-correction of lines 7–8).
//
// The result is an ε-coreset of size m = Õ(k ε^{-2z-2}) computed in time
// Õ(nd) — within log factors of reading the input (Corollary 3.2).

#ifndef FASTCORESET_CORE_FAST_CORESET_H_
#define FASTCORESET_CORE_FAST_CORESET_H_

#include <vector>

#include "src/clustering/fast_kmeans_plus_plus.h"
#include "src/common/timer.h"
#include "src/core/coreset.h"

namespace fastcoreset {

/// Which algorithm supplies the approximate solution of step 2.
enum class FastCoresetSeeder {
  kFastKMeansPlusPlus,  ///< Quadtree D^z sampling (the paper's default).
  kTreeGreedy,          ///< HST top-down greedy (Section 8.4 extension).
};

/// Wire names of the FastCoresetSeeder values, indexed by enumerator.
inline constexpr const char* kFastSeederNames[] = {"fast_kmeans++",
                                                   "tree_greedy"};

/// Method knobs for FastCoreset; k, m and z are arguments. Every knob is
/// named once, in Fields(self, f): one f(wire_name, member) call per knob.
/// The fc_serve request reader, its unknown-key check and the service
/// cache key all walk that list, so wire names and their order are stable.
struct FastCoresetOptions {
  /// JL projection before seeding (skipped when the input dimension is
  /// already at most the target O(log k / jl_eps^2)).
  bool use_jl = true;
  double jl_eps = 0.7;

  /// Run Crude-Approx + Reduce-Spread before seeding (Section 4). Off by
  /// default: it only pays off on inputs with genuinely huge spread.
  bool use_spread_reduction = false;

  /// Append per-cluster center-correction points (Algorithm 1 lines 7–8).
  bool center_correction = false;
  double correction_eps = 0.1;

  /// Seeding algorithm for the approximate solution.
  FastCoresetSeeder seeder = FastCoresetSeeder::kFastKMeansPlusPlus;

  /// Seeding knobs forwarded to Fast-kmeans++ (z is overridden; tree
  /// greedy reads max_depth only). max_depth must be in [1, 62].
  FastKMeansPlusPlusOptions seeding;

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) {
    f("use_jl", self.use_jl);
    f("jl_eps", self.jl_eps);
    f("use_spread_reduction", self.use_spread_reduction);
    f("center_correction", self.center_correction);
    f("correction_eps", self.correction_eps);
    f("seeding_max_depth", self.seeding.max_depth);
    f("seeding_full_depth_tree", self.seeding.full_depth_tree);
    f("seeding_rejection_sampling", self.seeding.rejection_sampling);
    f("seeding_max_rejections", self.seeding.max_rejections);
    f("seeder", self.seeder);
  }
};

/// Builds a Fast-Coreset of `points` (optionally weighted) with `m >= 1`
/// rows for k-clustering with cost exponent `z` (1 = k-median, 2 =
/// k-means). The coreset's rows are rows of `points` (plus synthetic
/// correction points if enabled).
/// `stages`, when non-null, gets the wall clock of each step appended in
/// pipeline order: "jl_projection" (step 1, ~0 when skipped),
/// "spread_reduction" (step 2b, only when enabled), "seeding" (step 2),
/// "sensitivities" (step 3) and "sampling" (step 4 + center correction).
/// Timing never touches the rng, so collecting it cannot perturb the
/// sampled coreset.
Coreset FastCoreset(const Matrix& points, const std::vector<double>& weights,
                    size_t k, size_t m, int z,
                    const FastCoresetOptions& options, Rng& rng,
                    std::vector<StageTime>* stages = nullptr);

/// Algorithm 1 steps 3–5 in isolation: given any assignment of the points
/// into `num_clusters` groups, refine each group's center to its 1-mean
/// (z = 2) or 1-median (z = 1) in the space of `points`, compute the
/// eq.-(1) sensitivities and importance-sample m points. Exposed so
/// alternative seeders can reuse the sampling tail. Every assignment id
/// must be below `num_clusters` (FC_CHECK).
Coreset CoresetFromAssignment(const Matrix& points,
                              const std::vector<double>& weights,
                              const std::vector<size_t>& assignment,
                              size_t num_clusters, size_t m, int z,
                              Rng& rng);

}  // namespace fastcoreset

#endif  // FASTCORESET_CORE_FAST_CORESET_H_
