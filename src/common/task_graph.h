// TaskGraph: the coarse dispatch tier above the chunk-parallel substrate
// (parallel.h). A TaskGraph is a DAG of tasks — shard builds, cache
// fills, merge steps — connected by dependency edges; Run() executes
// every task, respecting the edges, on up to `parallelism` node-executor
// threads (the caller participates as one of them, MapReduce-coordinator
// style: independent map tasks, a reduce task waiting on all its edges).
//
// The two tiers compose instead of fighting over the pool: each running
// task gets a ParallelBudgetScope slice of the pool, so its inner
// ParallelFor/ParallelReduce dispatches claim at most its share of the
// chunk-tier workers. With N tasks running, the pool's executor groups
// partition GetNumThreads() N ways; when only one task is left (a merge
// node, say), its slice widens back to the full pool. The `parallelism`
// budget caps N — how many tasks overlap — not the pool width, so
// parallelism = 1 reproduces the pre-scheduler behavior exactly: one
// task at a time, each internally parallel on the whole pool.
//
// Determinism contract: the scheduler decides only WHEN a task runs,
// never what it computes. Task bodies that are individually
// thread-invariant (everything built on the chunk substrate is) and
// write to disjoint slots therefore produce bit-identical results at
// any parallelism and any FC_THREADS — concurrent execution of a shard
// graph equals the sequential walk exactly. Ready tasks are claimed in
// task-id order, so even the execution *order* is deterministic at
// parallelism = 1.
//
// Error model: task functions must not throw. A failing task records
// its failure in caller-owned state (e.g. an FcStatusOr slot); the graph
// always drains every node so Run() never leaves detached work behind.
//
// Shutdown: the graph owns its node-executor threads and joins them
// before Run() returns. ShutdownThreadPool() concurrent with a running
// graph is safe — inner dispatches drain on the caller's thread (the
// dispatcher of a chunk task always participates), they just lose their
// extra workers until the pool lazily re-initializes.

#ifndef FASTCORESET_COMMON_TASK_GRAPH_H_
#define FASTCORESET_COMMON_TASK_GRAPH_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace fastcoreset {

class TaskGraph {
 public:
  using TaskId = size_t;

  /// Scheduler counters for one Run(), surfaced through the service
  /// diagnostics ("stats" verb scheduler block).
  struct RunStats {
    size_t tasks_executed = 0;       ///< Nodes the run completed.
    size_t max_concurrent_tasks = 0; ///< High-water of nodes in flight.
    size_t queue_high_water = 0;     ///< Max ready-queue length observed.
    size_t parallelism = 0;          ///< Effective node-concurrency cap.
  };

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a task depending on previously added tasks. Every id in `deps`
  /// must be smaller than the new task's id — edges always point
  /// backwards, so the graph is acyclic by construction. Returns the new
  /// task's id (ids are dense, starting at 0).
  TaskId AddTask(std::function<void()> fn,
                 const std::vector<TaskId>& deps = {});

  size_t TaskCount() const { return tasks_.size(); }

  /// Runs every task, respecting dependency edges, then returns the run's
  /// scheduler counters. `parallelism` caps how many tasks run
  /// concurrently: 0 means "all workers" (GetNumThreads()); anything
  /// else is clamped to [1, GetNumThreads()]. Each running task executes
  /// under a ParallelBudgetScope slice of max(1, GetNumThreads() /
  /// running_tasks), so the two tiers together never exceed the pool by
  /// more than the integer-division slack. Blocks until the whole graph
  /// has drained. A graph may be Run() only once.
  RunStats Run(size_t parallelism = 0);

 private:
  struct Task {
    std::function<void()> fn;
    std::vector<TaskId> dependents;  ///< Tasks waiting on this one.
    size_t pending_deps = 0;         ///< Unfinished dependency count.
  };

  /// Node-executor loop: claim the lowest ready task id, run it under
  /// its pool slice (pool_width / running tasks), retire it (releasing
  /// dependents), repeat until the graph is drained.
  void ExecutorLoop(size_t pool_width);

  std::vector<Task> tasks_;  ///< Frozen at Run(); bodies touch no state.

  /// Rank kTaskGraph: above the pool-dispatch mutex (a node executor
  /// never reaches into the graph while dispatching chunks) and below
  /// every service-layer lock.
  Mutex mutex_{lock_rank::kTaskGraph};
  CondVar ready_cv_;  ///< Signaled on new ready tasks and on drain.
  std::vector<TaskId> ready_ FC_GUARDED_BY(mutex_);  ///< Sorted claim pool.
  size_t running_ FC_GUARDED_BY(mutex_) = 0;
  size_t executed_ FC_GUARDED_BY(mutex_) = 0;
  size_t max_concurrent_ FC_GUARDED_BY(mutex_) = 0;
  size_t queue_high_water_ FC_GUARDED_BY(mutex_) = 0;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_TASK_GRAPH_H_
