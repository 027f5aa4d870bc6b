// Fixture: raw-mutex MUST NOT fire — the annotated wrappers are the
// blessed spelling.
// Linted as src/service/raw_mutex_clean.cc.
#include "src/common/mutex.h"

namespace fastcoreset::service {

Mutex g_lock{lock_rank::kNetServer};
int g_count FC_GUARDED_BY(g_lock) = 0;

int Counted() {
  MutexLock hold(&g_lock);
  return ++g_count;
}

}  // namespace fastcoreset::service
