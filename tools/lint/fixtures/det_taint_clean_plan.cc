// Fixture: determinism-taint MUST NOT fire — the chunk plan depends on
// n alone; the worker count only sizes a RunTasks parallelism budget
// (which changes scheduling, never results), and the env read is not a
// thread-count knob.
// Linted as src/core/det_taint_clean_plan.cc.
#include "src/common/parallel.h"

namespace fastcoreset {

void PlanFromN(int n) {
  int chunks = ParallelChunkCount(n);
  int workers = GetNumThreads();
  RunTasks(2, workers / 2, [](int) {});
  int verbosity = EnvInt("FC_BUILD_VERBOSE", 0);
  ParallelFor(n + verbosity - verbosity, [chunks](int) { (void)chunks; });
}

}  // namespace fastcoreset
