#include "src/common/parallel.h"

#include <algorithm>
#include <atomic>

#include "src/common/env.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace fastcoreset {

namespace {

// 0 = "not set yet": fall back to the FC_THREADS environment variable
// (default 1, serial) until SetNumThreads is called.
std::atomic<size_t> g_num_threads{0};

// Upper bound on the worker count: the pool keeps up to this many parked
// OS threads, so an accidental FC_THREADS=100000 must not turn into
// 100000 std::thread constructions (std::system_error -> std::terminate).
constexpr size_t kMaxEnvThreads = 256;

size_t EnvDefaultThreads() {
  static const size_t value = [] {
    const int64_t env = EnvInt("FC_THREADS", 1);
    if (env < 0) return size_t{1};
    if (env == 0) {
      const unsigned hardware = std::thread::hardware_concurrency();
      return hardware == 0 ? size_t{1} : size_t{hardware};
    }
    return std::min(static_cast<size_t>(env), kMaxEnvThreads);
  }();
  return value;
}

// Below this many items the chunking/thread overhead dominates.
constexpr size_t kSerialCutoff = 4096;

// Target chunk length. Equal to the serial cutoff so any range past the
// cutoff splits into at least two chunks (threads have work as soon as
// chunking kicks in); large enough that per-chunk dispatch is noise.
constexpr size_t kChunkSize = kSerialCutoff;

// Cap on the chunk count so per-chunk scratch (reduction partials) stays
// bounded on huge inputs.
constexpr size_t kMaxChunks = 1024;

struct ChunkPlan {
  size_t chunks = 1;
  size_t chunk_size = 0;
};

// The plan is a function of n ALONE. Thread count affects only which
// worker runs which chunk, never the chunk boundaries — that is the whole
// determinism story (see parallel.h).
ChunkPlan PlanChunks(size_t n) {
  if (n < kSerialCutoff) return {1, n};
  const size_t chunks =
      std::min(kMaxChunks, (n + kChunkSize - 1) / kChunkSize);
  return {chunks, (n + chunks - 1) / chunks};
}

// True on any thread currently inside a substrate dispatch (pool workers
// permanently, dispatchers for the duration of a call). A nested call
// sees the flag and runs inline instead of re-entering the pool: a chunk
// body dispatching again would otherwise stack fine-grained loops on a
// pool that its own dispatch already spans. RunTasks lifts the flag for
// the duration of each coarse task body, so a task may dispatch from a
// pool worker. That cannot deadlock: a dispatcher claims its own chunks
// until none is left and then waits only for executors already inside
// them, never for a worker to become free.
thread_local bool tls_in_parallel_region = false;

// Executor cap for dispatches from this thread. Only RunTasks sets it,
// to the slice of the pool each of its coarse tasks may use. SIZE_MAX =
// uncapped.
thread_local size_t tls_executor_budget = SIZE_MAX;

void RunSerial(size_t n, const ChunkPlan& plan,
               const std::function<void(size_t, size_t, size_t)>& body) {
  for (size_t c = 0; c < plan.chunks; ++c) {
    const size_t begin = c * plan.chunk_size;
    const size_t end = std::min(n, begin + plan.chunk_size);
    if (begin >= end) break;
    body(c, begin, end);
  }
}

// Persistent pool. Workers are spawned lazily on the first dispatch that
// wants them, park on a condition variable between dispatches, and are
// joined either explicitly (ShutdownThreadPool) or by the singleton's
// destructor at process exit. Any number of dispatches may be in flight
// at once: each publishes its own Task (one executor group claiming
// chunks off one shared counter), the dispatcher always participates as
// its task's executor 0, and parked workers engage whichever task is
// still short of its requested executor count — so concurrent
// dispatchers partition the workers instead of serializing behind a
// single dispatch slot.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  ~ThreadPool() { Shutdown(); }

  // Executes `body` over the fixed chunk plan with up to `executors`
  // concurrent executors (the calling thread plus pool workers). Blocks
  // until every chunk has run. Safe to call from any number of
  // application threads at once.
  void Run(size_t n, const ChunkPlan& plan, size_t executors,
           const std::function<void(size_t, size_t, size_t)>& body) {
    Task task;
    task.body = &body;
    task.n = n;
    task.chunk_size = plan.chunk_size;
    task.chunks = plan.chunks;
    task.executors = executors;
    task.remaining.store(plan.chunks, std::memory_order_relaxed);
    // The dispatcher is executor 0 and counts itself as active up front;
    // workers add themselves under the mutex when they engage.
    task.active.store(1, std::memory_order_relaxed);

    {
      MutexLock lock(mutex_);
      tasks_.push_back(&task);
      // Grow toward the total deficit across every in-flight task, so a
      // second concurrent dispatch gets real workers instead of starving
      // behind the first one's group.
      size_t deficit = 0;
      for (const Task* t : tasks_) deficit += t->executors - 1;
      EnsureWorkersLocked(deficit);
    }
    work_cv_.NotifyAll();

    Execute(task);

    MutexLock lock(mutex_);
    while (!(task.remaining.load(std::memory_order_acquire) == 0 &&
             task.active.load(std::memory_order_acquire) == 0)) {
      done_cv_.Wait(mutex_);
    }
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i] == &task) {
        tasks_.erase(tasks_.begin() + i);
        break;
      }
    }
  }
  void Shutdown() {
    std::vector<std::thread> workers;
    {
      MutexLock lock(mutex_);
      stopping_ = true;
      workers.swap(workers_);
    }
    work_cv_.NotifyAll();
    for (std::thread& worker : workers) worker.join();
    MutexLock lock(mutex_);
    stopping_ = false;  // Allow lazy re-initialization.
  }

  size_t WorkerCount() {
    MutexLock lock(mutex_);
    return workers_.size();
  }

 private:
  struct Task {
    const std::function<void(size_t, size_t, size_t)>* body = nullptr;
    size_t n = 0;
    size_t chunk_size = 0;
    size_t chunks = 0;
    size_t executors = 0;  // Cap on concurrent executors, dispatcher included.
    // Next chunk to claim. Every executor claims by fetch_add; claims at
    // or past `chunks` are overshoot and simply ignored (the counter
    // exceeds `chunks` by at most one per executor, never near overflow).
    std::atomic<size_t> next{0};
    std::atomic<size_t> remaining{0};  // Chunks not yet finished.
    std::atomic<size_t> active{0};     // Executors currently inside Execute.
  };

  // First in-flight task a worker can still help: short of its executor
  // cap AND with unclaimed chunks left. `next` only grows, so a task whose
  // chunks are all claimed can never be picked — which is also what makes
  // engagement safe against Task teardown: a pick implies remaining > 0,
  // so the task's dispatcher is still parked in Run() waiting for
  // completion.
  Task* PickTaskLocked() FC_REQUIRES(mutex_) {
    for (Task* task : tasks_) {
      if (task->active.load(std::memory_order_relaxed) < task->executors &&
          task->next.load(std::memory_order_relaxed) < task->chunks) {
        return task;
      }
    }
    return nullptr;
  }

  void EnsureWorkersLocked(size_t target) FC_REQUIRES(mutex_) {
    // A worker spawned during Shutdown would exit at once yet stay
    // counted in workers_, leaving later dispatches short of live
    // workers; the dispatcher can claim every chunk itself meanwhile.
    if (stopping_) return;
    target = std::min(target, kMaxEnvThreads - 1);
    while (workers_.size() < target) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    // Pool threads are executors by definition: any substrate call made
    // from a chunk body must run inline (see tls_in_parallel_region).
    tls_in_parallel_region = true;
    for (;;) {
      Task* task = nullptr;
      {
        MutexLock lock(mutex_);
        while (!stopping_ && (task = PickTaskLocked()) == nullptr) {
          work_cv_.Wait(mutex_);
        }
        if (stopping_) return;
        // The active count must rise under the mutex: Run() removes its
        // task from tasks_ only while holding it, so a worker either
        // engages a still-live task or never sees it at all. PickTask
        // caps engagement at the task's executor count (dispatcher
        // included): a pool grown for an earlier 8-executor dispatch must
        // not throw all 7 workers at a 2-executor task.
        task->active.fetch_add(1, std::memory_order_relaxed);
      }
      Execute(*task);
    }
  }

  // Claims chunks off the task's shared counter until none is left.
  // Signals the dispatcher when the last chunk retires and the last
  // executor leaves.
  void Execute(Task& task) {
    for (size_t chunk = task.next.fetch_add(1, std::memory_order_relaxed);
         chunk < task.chunks;
         chunk = task.next.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = chunk * task.chunk_size;
      const size_t end = std::min(task.n, begin + task.chunk_size);
      if (begin < end) (*task.body)(chunk, begin, end);
      task.remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
    // The dispatcher waits for remaining == 0 && active == 0, and the
    // Task dies with Run()'s stack frame as soon as that holds — so the
    // active decrement must be this executor's LAST access to the task
    // (reading it afterwards races with Task destruction under a spurious
    // done_cv_ wakeup). Read remaining first; release ordering on the
    // decrement keeps the load from sinking below it.
    const bool chunks_done =
        task.remaining.load(std::memory_order_acquire) == 0;
    const size_t prev_active =
        task.active.fetch_sub(1, std::memory_order_acq_rel);
    // Wake the dispatcher when this exit may be the completing one:
    // either every chunk had already retired, or this was the last
    // active executor — in which case all chunks are necessarily done (a
    // chunk in flight keeps its executor active), even if the remaining
    // load above raced with another executor retiring the final chunk.
    // Without the prev_active clause that race loses the only wakeup.
    if (chunks_done || prev_active == 1) {
      MutexLock lock(mutex_);
      done_cv_.NotifyAll();
    }
  }

  // Rank kPoolDispatch: the innermost lock of the tree — nothing may be
  // acquired while it is held.
  Mutex mutex_{lock_rank::kPoolDispatch};
  CondVar work_cv_;  // Workers park here between tasks.
  CondVar done_cv_;  // Dispatchers wait here for their task's completion.
  std::vector<std::thread> workers_ FC_GUARDED_BY(mutex_);
  std::vector<Task*> tasks_ FC_GUARDED_BY(mutex_);  // In-flight dispatches.
  bool stopping_ FC_GUARDED_BY(mutex_) = false;
};

// Runs `body` over `plan` on up to `executors` executors of the pool and
// returns true, or returns false without running anything when the call
// must stay on the caller: one executor, or already inside a dispatch
// (see tls_in_parallel_region).
bool RunOnPool(size_t n, const ChunkPlan& plan, size_t executors,
               const std::function<void(size_t, size_t, size_t)>& body) {
  if (executors <= 1 || tls_in_parallel_region) return false;
  tls_in_parallel_region = true;
  ThreadPool::Instance().Run(n, plan, executors, body);
  tls_in_parallel_region = false;
  return true;
}

// Pool width a dispatch from this thread may use.
size_t ExecutorWidth() {
  return std::min(GetNumThreads(), tls_executor_budget);
}

}  // namespace

void SetNumThreads(size_t count) {
  if (count == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    count = hardware == 0 ? 1 : hardware;
  }
  g_num_threads.store(std::min(count, kMaxEnvThreads));
}

void ResetNumThreads() { g_num_threads.store(0); }

size_t GetNumThreads() {
  const size_t set = g_num_threads.load();
  return set == 0 ? EnvDefaultThreads() : set;
}

size_t MaxParallelism() { return kMaxEnvThreads; }

size_t EffectiveParallelism(size_t parallelism) {
  const size_t threads = GetNumThreads();
  return parallelism == 0 ? threads
                          : std::clamp<size_t>(parallelism, 1, threads);
}

void RunTasks(size_t count, size_t parallelism,
              const std::function<void(size_t)>& task) {
  if (count == 0) return;
  const size_t width = ExecutorWidth();
  const size_t executors =
      std::min({EffectiveParallelism(parallelism), count, width});
  // A fixed slice per task, so the tasks' inner dispatches together
  // engage at most `width` executors however their runs overlap.
  const size_t slice = width / executors;
  const bool pooled = RunOnPool(
      count, ChunkPlan{count, 1}, executors,
      [&](size_t i, size_t /*begin*/, size_t /*end*/) {
        const bool region = tls_in_parallel_region;
        const size_t budget = tls_executor_budget;
        tls_in_parallel_region = false;
        tls_executor_budget = slice;
        task(i);
        tls_in_parallel_region = region;
        tls_executor_budget = budget;
      });
  if (!pooled) {
    for (size_t i = 0; i < count; ++i) task(i);
  }
}

void ShutdownThreadPool() { ThreadPool::Instance().Shutdown(); }

size_t ThreadPoolWorkerCount() { return ThreadPool::Instance().WorkerCount(); }

size_t ParallelChunkCount(size_t n) {
  return n == 0 ? 0 : PlanChunks(n).chunks;
}

void ParallelForChunks(
    size_t n, const std::function<void(size_t, size_t, size_t)>& body) {
  if (n == 0) return;
  const ChunkPlan plan = PlanChunks(n);
  if (!RunOnPool(n, plan, std::min(ExecutorWidth(), plan.chunks), body)) {
    RunSerial(n, plan, body);
  }
}

void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body) {
  ParallelForChunks(
      n, [&body](size_t /*chunk*/, size_t begin, size_t end) {
        body(begin, end);
      });
}

double ParallelReduce(size_t n,
                      const std::function<double(size_t, size_t)>& body) {
  if (n == 0) return 0.0;
  std::vector<double> partials(ParallelChunkCount(n), 0.0);
  ParallelForChunks(n, [&](size_t chunk, size_t begin, size_t end) {
    partials[chunk] = body(begin, end);
  });
  double total = 0.0;
  for (double partial : partials) total += partial;  // Fixed chunk order.
  return total;
}

}  // namespace fastcoreset
