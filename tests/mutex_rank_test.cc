// Dynamic cross-check of the PR 9 lock-rank hierarchy (src/common/mutex.h):
// ordered acquisition must be silent, an inversion must abort — but only
// in builds where FC_MUTEX_RANK_CHECKS is compiled in (assert-enabled or
// sanitizer builds; release builds discard the ranks entirely).

#include <gtest/gtest.h>

#include "src/common/mutex.h"

// Death tests fork; under TSan the forked child inherits a runtime whose
// background threads did not survive the fork and can hang, so the
// inversion test is exercised by the plain debug and ASan suites instead.
#if defined(__SANITIZE_THREAD__)
#define FC_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FC_TEST_UNDER_TSAN 1
#endif
#endif
#ifndef FC_TEST_UNDER_TSAN
#define FC_TEST_UNDER_TSAN 0
#endif

namespace fastcoreset {
namespace {

TEST(MutexRankTest, OrderedNestingIsSilent) {
  Mutex outer{lock_rank::kNetServer};
  Mutex inner{lock_rank::kPoolDispatch};
  MutexLock hold_outer(outer);
  MutexLock hold_inner(inner);
  SUCCEED();
}

TEST(MutexRankTest, FullTierChainInOrderIsSilent) {
  Mutex net{lock_rank::kNetServer};
  Mutex store{lock_rank::kDatasetStore};
  Mutex cache{lock_rank::kCoresetCache};
  Mutex pool{lock_rank::kPoolDispatch};
  MutexLock l1(net);
  MutexLock l2(store);
  MutexLock l3(cache);
  MutexLock l4(pool);
  SUCCEED();
}

TEST(MutexRankTest, UnrankedMutexesAreExempt) {
  // Default-constructed (rank 0) mutexes opt out: tests and short-lived
  // locals may nest freely in any order. Static storage so the reversed
  // acquisition order cannot alias the stack slots of another test's
  // mutexes in TSan's per-address deadlock graph.
  static Mutex a;
  static Mutex b;
  MutexLock hold_b(b);
  MutexLock hold_a(a);
  SUCCEED();
}

TEST(MutexRankTest, SequentialReacquisitionIsSilent) {
  // Lock-release-lock of the same ranked mutex must not trip the check:
  // the first hold is popped before the second acquisition.
  Mutex cache{lock_rank::kCoresetCache};
  {
    MutexLock hold(cache);
  }
  MutexLock hold_again(cache);
  SUCCEED();
}

TEST(MutexRankDeathTest, InversionAborts) {
#if FC_MUTEX_RANK_CHECKS && !FC_TEST_UNDER_TSAN
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Mutex inner{lock_rank::kPoolDispatch};
        Mutex outer{lock_rank::kNetServer};
        MutexLock hold_inner(inner);
        MutexLock hold_outer(outer);
      },
      "lock-rank inversion");
#else
  GTEST_SKIP() << "rank checks compiled out (release) or running under "
                  "TSan (death tests fork)";
#endif
}

TEST(MutexRankDeathTest, EqualRankNestingAborts) {
#if FC_MUTEX_RANK_CHECKS && !FC_TEST_UNDER_TSAN
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Mutex first{lock_rank::kCoresetCache};
        Mutex second{lock_rank::kCoresetCache};
        MutexLock hold_first(first);
        MutexLock hold_second(second);
      },
      "lock-rank inversion");
#else
  GTEST_SKIP() << "rank checks compiled out (release) or running under "
                  "TSan (death tests fork)";
#endif
}

}  // namespace
}  // namespace fastcoreset
