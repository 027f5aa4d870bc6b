// Fixture: the header half of a two-file lock-order case. The ranked
// mutex_ is declared here and locked in lock_order_fire_pair.cc, so the
// .cc only knows its rank through the header.
// Linted as src/service/lock_order_pair.h.
#ifndef FIXTURE_LOCK_ORDER_PAIR_H_
#define FIXTURE_LOCK_ORDER_PAIR_H_

#include "src/common/mutex.h"

namespace fastcoreset::service {

class Registry {
 public:
  void Refresh();

 private:
  mutable Mutex mutex_{lock_rank::kCoresetCache};
};

}  // namespace fastcoreset::service

#endif  // FIXTURE_LOCK_ORDER_PAIR_H_
