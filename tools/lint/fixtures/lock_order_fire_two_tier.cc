// Fixture: lock-order MUST fire — a two-tier lock shape, inverted. The
// service-layer mutex (kCoresetCache, rank 30) is OUTER; the pool
// dispatch mutex (rank 60) is INNER. Taking the outer mutex while the
// pool mutex is held deadlocks against the correct-order path.
// Linted as src/common/lock_order_fire_two_tier.cc.
#include "src/common/mutex.h"

namespace fastcoreset {

Mutex cache_mutex_{lock_rank::kCoresetCache};
Mutex pool_mutex_{lock_rank::kPoolDispatch};

void InvertedNesting() {
  MutexLock pool_hold(&pool_mutex_);
  MutexLock cache_hold(&cache_mutex_);  // inner -> outer: inversion
}

// FC_REQUIRES context counts as "held for the whole body".
void DrainLocked() FC_REQUIRES(pool_mutex_) {
  cache_mutex_.Lock();  // inversion: rank 30 while rank 60 is held
  cache_mutex_.Unlock();
}

}  // namespace fastcoreset
