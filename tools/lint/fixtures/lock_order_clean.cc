// Fixture: lock-order MUST NOT fire — the same two-tier lock shape
// acquired in rank order (cache rank 30 outer, pool rank 60 inner),
// sequential reacquisition after release, and an FC_REQUIRES
// context that only takes deeper locks.
// Linted as src/common/lock_order_clean.cc.
#include "src/common/mutex.h"

namespace fastcoreset {

Mutex cache_mutex_{lock_rank::kCoresetCache};
Mutex pool_mutex_{lock_rank::kPoolDispatch};

void OrderedNesting() {
  MutexLock cache_hold(&cache_mutex_);
  MutexLock pool_hold(&pool_mutex_);
}

void SequentialReacquire() {
  pool_mutex_.Lock();
  pool_mutex_.Unlock();
  cache_mutex_.Lock();  // fine: the pool mutex is no longer held
  cache_mutex_.Unlock();
}

void DispatchLocked() FC_REQUIRES(cache_mutex_) {
  MutexLock pool_hold(&pool_mutex_);  // outer -> inner: correct order
}

}  // namespace fastcoreset
