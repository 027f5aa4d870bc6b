// Fixture: lock-order MUST fire on an unranked Mutex, and only there:
// the ranked declaration below it is its own rank entry.
// Linted as src/service/lock_order_fire_unranked.cc.
#include "src/common/mutex.h"

namespace fastcoreset::service {

Mutex g_mu;

Mutex cache_mutex_{lock_rank::kCoresetCache};

int Work() {
  MutexLock hold(&g_mu);
  return 1;
}

}  // namespace fastcoreset::service
