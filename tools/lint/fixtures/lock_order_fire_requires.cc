// Fixture: lock-order MUST fire in both annotated helpers — each runs
// with mutex_ (rank 30) held, as its header declaration requires, so
// taking mutex_ again or the rank-20 store lock inverts the order.
// Flush() carries no annotation and takes mutex_ first: clean.
// Linted as src/service/lock_order_requires.cc, next to the header.
#include "src/service/lock_order_requires.h"

namespace fastcoreset::service {

Mutex g_store{lock_rank::kDatasetStore};

void Journal::Append() {
  MutexLock relock(mutex_);  // re-acquire of a held lock
}

void Journal::Publish() {
  MutexLock store(g_store);  // inversion: rank 20 while rank 30 is held
}

void Journal::Flush() {
  MutexLock hold(mutex_);
  Append();
}

}  // namespace fastcoreset::service
