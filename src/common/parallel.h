// Minimal data-parallel substrate. The heavy kernels (nearest-center
// assignment, cost evaluation) are embarrassingly parallel over points;
// the range [0, n) is partitioned into contiguous chunks whose geometry
// depends ONLY on n — never on the worker count — and reductions combine
// per-chunk partials in chunk index order. Worker threads merely decide
// *who executes* a chunk, not what the chunk is, so as long as the chunk
// bodies are pure (no shared RNG, disjoint writes) every result is
// bit-identical for ANY thread count, not just for a fixed one.
//
// Execution runs on a lazily-initialized persistent thread pool: the
// first multi-threaded dispatch spawns the workers once, and subsequent
// ParallelFor/ParallelReduce calls only pay a condition-variable wake
// instead of an OS thread spawn/join round. A dispatch's executors claim
// chunks in index order off one shared atomic counter, so an uneven chunk
// costs only load balance, never the chunk plan. Workers park on a
// condition variable between dispatches and are joined cleanly at process
// exit (or explicitly via ShutdownThreadPool).
//
// The pool serves any number of CONCURRENT dispatches: each in-flight
// dispatch owns its own executor group (its own claim counter and cap),
// the dispatcher always participates in its own group, and parked
// workers join whichever group is still short of its requested executor
// count.
//
// RunTasks is one more dispatch on the same pool: N independent coarse
// tasks (shard builds) are the chunks of a plan with chunk size 1. Each
// task body may itself dispatch its inner chunk loops, capped to a fixed
// slice of the pool, so the two tiers partition the pool's threads
// instead of oversubscribing them. Every thread the substrate starts is a
// pool worker.
//
// Nested parallelism is otherwise safe but serial: a chunk body that
// itself calls into the substrate runs that inner loop inline on the
// calling thread.
//
// Parallelism is opt-in: the global thread count defaults to 1 (serial),
// keeping single-threaded reproducibility unless the caller calls
// SetNumThreads or the FC_THREADS environment variable raises it
// (FC_THREADS=0 picks the hardware concurrency).

#ifndef FASTCORESET_COMMON_PARALLEL_H_
#define FASTCORESET_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/check.h"

namespace fastcoreset {

/// Sets the global worker count used by ParallelFor/ParallelReduce.
/// count = 0 picks the hardware concurrency.
void SetNumThreads(size_t count);

/// Discards any SetNumThreads override and returns to the FC_THREADS
/// environment default (1 when unset).
void ResetNumThreads();

/// Current global worker count (>= 1).
size_t GetNumThreads();

/// Hard upper bound on worker/executor counts accepted anywhere in the
/// substrate (SetNumThreads, FC_THREADS, parallelism budgets). Requests
/// above it are clamped by the substrate and should be rejected by
/// request-validating frontends.
size_t MaxParallelism();

/// The effective coarse-task concurrency for a requested budget: 0 means
/// GetNumThreads(); anything else is clamped to [1, GetNumThreads()].
size_t EffectiveParallelism(size_t parallelism);

/// Fork-join over independent coarse tasks: runs task(i) for every i in
/// [0, count) and returns once every task has finished. The tasks run on
/// E = min(EffectiveParallelism(parallelism), count) executors of the
/// persistent pool, the caller being one of them, claimed in index order.
/// Each task's own dispatches get a fixed slice of GetNumThreads() / E
/// executors, so the two tiers together never use more than
/// GetNumThreads() threads. With E = 1, or when called from inside a
/// chunk body, the tasks run in index order on the caller, and their
/// dispatches keep the caller's width. Tasks must not throw; a failing
/// task records its failure in caller-owned state (one slot per index).
///
/// ShutdownThreadPool() concurrent with RunTasks is safe: every
/// dispatcher, a task body included, can claim all of its own chunks, so
/// the tasks only lose their pool workers until the pool lazily
/// re-initializes.
void RunTasks(size_t count, size_t parallelism,
              const std::function<void(size_t)>& task);

/// Joins and discards the persistent pool's worker threads. The next
/// multi-threaded dispatch re-initializes the pool lazily, so this is
/// safe to call at any quiescent point (tests use it to exercise
/// repeated init/teardown; normal programs never need it — the pool
/// shuts itself down at process exit).
void ShutdownThreadPool();

/// Number of live pool worker threads (excluding the calling thread).
/// 0 before the first multi-threaded dispatch and after
/// ShutdownThreadPool.
size_t ThreadPoolWorkerCount();

/// Number of chunks [0, n) is partitioned into. A function of n alone:
/// callers sizing per-chunk scratch get the same layout at every thread
/// count, which is what makes chunk-ordered merges thread-invariant.
size_t ParallelChunkCount(size_t n);

/// Runs body(chunk, begin, end) once per chunk of [0, n). Chunks are
/// contiguous, cover the range exactly, and are numbered in range order.
/// Execution may be concurrent and in any order; chunk geometry is fixed
/// by n (see ParallelChunkCount). This is the primitive for deterministic
/// reductions: write per-chunk partials indexed by `chunk`, then merge
/// them serially in chunk order after the call returns.
void ParallelForChunks(
    size_t n, const std::function<void(size_t, size_t, size_t)>& body);

/// Runs body(begin, end) over the chunk partition of [0, n). Serial when
/// the worker count is 1 or the range is below the serial cutoff.
void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body);

/// Parallel sum reduction: body(begin, end) returns the partial value for
/// its chunk; partials are added in chunk order, so the result is
/// bit-identical at any thread count.
double ParallelReduce(size_t n,
                      const std::function<double(size_t, size_t)>& body);

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_PARALLEL_H_
