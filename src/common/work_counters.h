// Deterministic operation counts of one build. Each count is taken per
// chunk and summed, so it depends only on the input, the spec and the
// seed, never on FC_THREADS or the wall clock. Counts are not times: a
// count says how much work an algorithm chose to do, and so gates its
// asymptotics where wall clock on a shared machine cannot. Nothing may
// read a count back into a plan, a seed or a result.

#ifndef FASTCORESET_COMMON_WORK_COUNTERS_H_
#define FASTCORESET_COMMON_WORK_COUNTERS_H_

#include <cstdint>

namespace fastcoreset {

/// Work a build did, accumulated by the stages that count it. A zero
/// count means the stage did not run.
struct WorkCounters {
  /// SquaredL2 calls of KMeansPlusPlus: 2n for the first center's pass
  /// and the block radii, then per round one per earlier center, one per
  /// block anchor and one per point that neither triangle-inequality
  /// test rules out. With every point computed this is
  /// n·(k+1) + (k−1)·⌈n/512⌉ + k(k−1)/2.
  uint64_t kmeanspp_distance_evals = 0;
  /// Rows KMeansPlusPlus's rounds scan: the rows of every block its
  /// block test does not rule out, each of which then runs the per-point
  /// test. Without the block test this is n·(k−1).
  uint64_t kmeanspp_rows_tested = 0;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_WORK_COUNTERS_H_
