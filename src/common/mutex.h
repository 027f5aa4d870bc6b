// Capability-annotated mutex primitives. std::mutex carries no
// thread-safety attributes under libstdc++, so clang's -Wthread-safety
// cannot see std::lock_guard acquisitions; these thin wrappers are the
// annotated equivalents every mutex-guarded class in the tree uses:
//
//   Mutex      — std::mutex as an FC_CAPABILITY (Lock/Unlock).
//   MutexLock  — std::lock_guard as an FC_SCOPED_CAPABILITY.
//   CondVar    — std::condition_variable over a Mutex; Wait() FC_REQUIRES
//                the mutex, so waiting without it is a compile error.
//
// Lock-rank order (PR 9). Every long-lived Mutex in the tree carries an
// integer rank from lock_rank below — lower ranks are OUTER locks,
// acquired first; a thread may only acquire a mutex whose rank is
// strictly greater than every rank it already holds. The lock_rank block
// is the one rank table, and each lock's declaration
// (`Mutex mutex_{lock_rank::k...};`) is its one entry in it. fc_lint's
// lock-order pass reads both and statically checks lexical acquisition
// patterns, and in debug/sanitizer builds (FC_MUTEX_RANK_CHECKS) every
// Lock() checks the order dynamically against a thread-local stack of
// held ranks, so an inversion aborts at the site instead of deadlocking
// in production.
//
// In release builds without sanitizers all of this compiles away: the
// wrappers are exactly the std:: operation they wrap, and rank
// constructor arguments are discarded.

#ifndef FASTCORESET_COMMON_MUTEX_H_
#define FASTCORESET_COMMON_MUTEX_H_

// Dynamic rank checking is on wherever a violation can be caught cheaply
// and loudly: assert-enabled builds, and the ASan/TSan CI presets (which
// compile RelWithDebInfo, so NDEBUG alone would switch the checks off
// exactly where the concurrency suites run).
#if !defined(NDEBUG) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_ADDRESS__)
#define FC_MUTEX_RANK_CHECKS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FC_MUTEX_RANK_CHECKS 1
#else
#define FC_MUTEX_RANK_CHECKS 0
#endif
#else
#define FC_MUTEX_RANK_CHECKS 0
#endif

#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

#if FC_MUTEX_RANK_CHECKS
#include <cstdio>

#include "src/common/check.h"
#endif

namespace fastcoreset {

namespace lock_rank {

// The global acquisition order, outermost first: the one rank table.
// Gaps leave room for new tiers without renumbering. Every value but
// kUnranked is positive and unique; fc_lint's lock-order pass checks
// that, and reads each lock's rank from the constant its Mutex
// declaration names.
inline constexpr int kUnranked = 0;  ///< Exempt (short-lived/test locks).
inline constexpr int kNetServer = 5;      ///< NetServer sessions/queue.
inline constexpr int kDatasetStore = 20;  ///< DatasetStore bindings.
inline constexpr int kCoresetCache = 30;  ///< CoresetCache LRU state.
inline constexpr int kPoolDispatch = 60;  ///< ThreadPool dispatch.

}  // namespace lock_rank

#if FC_MUTEX_RANK_CHECKS
namespace rank_check_internal {

/// Per-thread stack of held (mutex, rank) pairs. Fixed depth: no code
/// path in the tree nests two ranked locks today, so one is held at a
/// time; 16 is headroom, and blowing it is itself a locking bug worth an
/// abort.
struct HeldStack {
  static constexpr int kMaxDepth = 16;
  const void* mutex[kMaxDepth];
  int rank[kMaxDepth];
  int depth = 0;
};

inline HeldStack& TlsHeld() {
  thread_local HeldStack stack;
  return stack;
}

/// Call BEFORE blocking on the lock: an inversion then aborts with both
/// ranks named instead of deadlocking first.
inline void CheckAcquire(int rank) {
  if (rank == lock_rank::kUnranked) return;
  const HeldStack& held = TlsHeld();
  for (int i = 0; i < held.depth; ++i) {
    if (held.rank[i] >= rank) {
      char msg[160];
      std::snprintf(
          msg, sizeof(msg),
          "lock-rank inversion: acquiring rank %d while holding rank %d "
          "(lower = outer; see lock_rank in src/common/mutex.h)",
          rank, held.rank[i]);
      internal_check::CheckFailed(__FILE__, __LINE__, "lock rank order",
                                  msg);
    }
  }
}

inline void PushHeld(const void* mutex, int rank) {
  if (rank == lock_rank::kUnranked) return;
  HeldStack& held = TlsHeld();
  FC_CHECK_MSG(held.depth < HeldStack::kMaxDepth,
               "lock-rank stack overflow: more than kMaxDepth ranked "
               "locks held by one thread");
  held.mutex[held.depth] = mutex;
  held.rank[held.depth] = rank;
  ++held.depth;
}

inline void PopHeld(const void* mutex) {
  HeldStack& held = TlsHeld();
  // Search from the top: releases are almost always LIFO, but manual
  // Lock/Unlock pairs may interleave.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.mutex[i] != mutex) continue;
    for (int j = i; j + 1 < held.depth; ++j) {
      held.mutex[j] = held.mutex[j + 1];
      held.rank[j] = held.rank[j + 1];
    }
    --held.depth;
    return;
  }
  // Unranked mutexes are never pushed; unlocking one lands here.
}

}  // namespace rank_check_internal
#endif  // FC_MUTEX_RANK_CHECKS

/// std::mutex with capability annotations. Prefer MutexLock over manual
/// Lock/Unlock pairs. Long-lived mutexes take their lock_rank tier in the
/// constructor; the default constructor is rank-exempt (tests,
/// short-lived locals).
class FC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if FC_MUTEX_RANK_CHECKS
  explicit Mutex(int rank) : rank_(rank) {}

  void Lock() FC_ACQUIRE() {
    rank_check_internal::CheckAcquire(rank_);
    mutex_.lock();
    rank_check_internal::PushHeld(this, rank_);
  }
  void Unlock() FC_RELEASE() {
    rank_check_internal::PopHeld(this);
    mutex_.unlock();
  }
#else
  explicit Mutex(int rank) { static_cast<void>(rank); }

  void Lock() FC_ACQUIRE() { mutex_.lock(); }
  void Unlock() FC_RELEASE() { mutex_.unlock(); }
#endif

 private:
  friend class CondVar;
  std::mutex mutex_;
#if FC_MUTEX_RANK_CHECKS
  const int rank_ = lock_rank::kUnranked;
#endif
};

/// RAII lock over a Mutex (std::lock_guard shape): acquires in the
/// constructor, releases in the destructor.
class FC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) FC_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() FC_RELEASE() { mutex_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable bound to Mutex. Wait() takes the held mutex
/// explicitly — the analysis then enforces the invariant that predicates
/// are re-checked under the lock (callers loop: `while (!pred())
/// cv.Wait(mutex);`).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex`, waits, and reacquires it before
  /// returning. Spurious wakeups are possible, as with std::
  /// condition_variable. The rank-check stack deliberately keeps the
  /// mutex's entry during the wait: the caller still logically holds it
  /// (the annotations say so), and a blocked thread cannot acquire
  /// anything else anyway.
  void Wait(Mutex& mutex) FC_REQUIRES(mutex) {
    // Adopt the already-held std::mutex for the wait, then release the
    // unique_lock's ownership claim so the Mutex stays held (as the
    // caller's annotations say it is) when this returns.
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_MUTEX_H_
