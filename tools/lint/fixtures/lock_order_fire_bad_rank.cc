// Fixture: lock-order MUST fire on ranks that are not a lock_rank
// constant of src/common/mutex.h — a constant mutex.h does not define,
// and a rank restated as a bare number.
// Linted as src/service/lock_order_fire_bad_rank.cc.
#include "src/common/mutex.h"

namespace fastcoreset::service {

Mutex a_{lock_rank::kNoSuchRank};
Mutex b_{30};

}  // namespace fastcoreset::service
