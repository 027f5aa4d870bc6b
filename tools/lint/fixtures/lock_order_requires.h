// Fixture: the header half of a lock-order case whose FC_REQUIRES sits
// on the declaration only, as NetServer's helpers do. The out-of-line
// definitions in lock_order_fire_requires.cc hold mutex_ for their whole
// body because of these annotations.
// Linted as src/service/lock_order_requires.h.
#ifndef FIXTURE_LOCK_ORDER_REQUIRES_H_
#define FIXTURE_LOCK_ORDER_REQUIRES_H_

#include "src/common/mutex.h"

namespace fastcoreset::service {

class Journal {
 public:
  void Flush();

 private:
  void Append() FC_REQUIRES(mutex_);
  void Publish() FC_REQUIRES(mutex_);

  mutable Mutex mutex_{lock_rank::kCoresetCache};
};

}  // namespace fastcoreset::service

#endif  // FIXTURE_LOCK_ORDER_REQUIRES_H_
