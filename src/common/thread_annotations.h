// Clang thread-safety-analysis attribute macros (FC_GUARDED_BY,
// FC_REQUIRES, FC_ACQUIRE/FC_RELEASE, ...). Annotating a class's shared
// state turns its locking discipline into a compile-time contract: clang
// builds add -Wthread-safety -Werror=thread-safety (see the root
// CMakeLists), so touching a FC_GUARDED_BY member without holding its
// mutex, or calling a FC_REQUIRES helper unlocked, is a build error — the
// discipline lives in the type system instead of comments. GCC has no
// analysis; every macro expands to nothing there, so annotations are
// zero-cost in the default toolchain.
//
// The annotations only bite on capability-annotated mutex types —
// libstdc++'s std::mutex is not one — so annotated classes hold their
// state under fastcoreset::Mutex / MutexLock (src/common/mutex.h), the
// FC_CAPABILITY / FC_SCOPED_CAPABILITY wrappers defined over std::mutex.
//
// Macro set and spelling follow the clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).

#ifndef FASTCORESET_COMMON_THREAD_ANNOTATIONS_H_
#define FASTCORESET_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define FC_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define FC_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op on GCC/MSVC
#endif

/// On a class: instances are a capability (a lock) the analysis tracks.
#define FC_CAPABILITY(x) FC_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// On a class: RAII object that acquires a capability in its constructor
/// and releases it in its destructor (std::lock_guard shape).
#define FC_SCOPED_CAPABILITY FC_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// On a data member: reads and writes require holding the given mutex.
#define FC_GUARDED_BY(x) FC_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// On a pointer/smart-pointer member: the pointed-to data (not the
/// pointer itself) requires the mutex.
#define FC_PT_GUARDED_BY(x) FC_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// On a function: callers must hold the given mutex(es) exclusively.
#define FC_REQUIRES(...) \
  FC_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Legacy spelling of FC_REQUIRES (kept because call sites annotated in
/// the pre-capability vocabulary read more naturally with it).
#define FC_EXCLUSIVE_LOCKS_REQUIRED(...) \
  FC_THREAD_ANNOTATION_ATTRIBUTE(exclusive_locks_required(__VA_ARGS__))

/// On a function: acquires the mutex(es) and holds them on return.
#define FC_ACQUIRE(...) \
  FC_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// On a function: releases mutex(es) the caller holds.
#define FC_RELEASE(...) \
  FC_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// On a function: callers must NOT hold the given mutex(es) (deadlock
/// guard for self-locking public entry points).
#define FC_EXCLUDES(...) \
  FC_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// On a function returning a reference to a mutex: names the capability
/// the result stands for.
#define FC_RETURN_CAPABILITY(x) \
  FC_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment saying why the discipline cannot be expressed.
#define FC_NO_THREAD_SAFETY_ANALYSIS \
  FC_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // FASTCORESET_COMMON_THREAD_ANNOTATIONS_H_
