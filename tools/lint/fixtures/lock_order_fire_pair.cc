// Fixture: lock-order MUST fire — the mutex_ held here (rank 30) is
// declared in lock_order_pair.h, and the file-scope mutex taken under it
// ranks lower (5), so it is an outer lock taken inside an inner one.
// Linted as src/service/lock_order_pair.cc, next to the header.
#include "src/service/lock_order_pair.h"

namespace fastcoreset::service {

Mutex g_outer{lock_rank::kNetServer};

void Registry::Refresh() {
  MutexLock hold(mutex_);
  MutexLock outer(g_outer);  // inversion: rank 5 while rank 30 is held
}

}  // namespace fastcoreset::service
