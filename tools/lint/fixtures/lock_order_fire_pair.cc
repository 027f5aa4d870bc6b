// Fixture: lock-order MUST fire — the mutex_ held here (rank 30) is
// declared in lock_order_pair.h, and the file-scope mutex taken under it
// ranks lower (10), so it is an outer lock taken inside an inner one.
// Linted as src/service/lock_order_pair.cc, next to the header.
#include "src/service/lock_order_pair.h"

namespace fastcoreset::service {

Mutex g_totals{lock_rank::kServiceScheduler};

void Registry::Refresh() {
  MutexLock hold(mutex_);
  MutexLock totals(g_totals);  // inversion: rank 10 while rank 30 is held
}

}  // namespace fastcoreset::service
