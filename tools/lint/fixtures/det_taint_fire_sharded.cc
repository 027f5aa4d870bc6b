// Fixture: determinism-taint MUST fire — a timer reading assigned into a
// ShardedBuildResult field outside `diagnostics`. The planner's product
// follows the BuildResult shape: only result.diagnostics.* may hold
// wall-clock values.
// Linted as src/service/det_taint_fire_sharded.cc.
#include "src/common/timer.h"

namespace fastcoreset {

void Assemble(ShardedBuildResult& result) {
  Timer wall;
  result.critical_path_seconds = wall.Seconds();  // outside diagnostics
  result.diagnostics.critical_path_seconds = wall.Seconds();  // allowed
}

}  // namespace fastcoreset
