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
  /// SquaredL2 calls of KMeansPlusPlus: n for the first center, then per
  /// round one per earlier center and one per point that the
  /// triangle-inequality test does not rule out. Without the test this
  /// is n·k + k(k−1)/2.
  uint64_t kmeanspp_distance_evals = 0;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_WORK_COUNTERS_H_
