// Tests for the persistent thread pool behind ParallelFor/ParallelReduce
// (parallel.cc) and the RunTasks fork-join tier above it: lazy
// initialization, reentrancy (nested dispatches run inline instead of
// deadlocking), worker counts exceeding the chunk count, repeated
// init/teardown via ShutdownThreadPool, exact coverage of the chunk
// partition whichever executor claims each chunk, concurrent independent
// dispatches, RunTasks on the pool (its tasks run on pool workers, and
// neither tier engages more executors than its cap), and shutdown racing
// running coarse tasks.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"

namespace fastcoreset {
namespace {

// Large enough that the chunk plan splits the range and the pool engages
// (see kSerialCutoff in parallel.cc).
constexpr size_t kRows = 100000;

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(size_t count) { SetNumThreads(count); }
  ~ThreadCountGuard() { ResetNumThreads(); }
};

// Peak number of bodies running at once, measured by the bodies
// themselves: each calls Enter() first and Leave() last.
class InFlightPeak {
 public:
  void Enter() {
    const size_t running = in_flight_.fetch_add(1) + 1;
    size_t seen = peak_.load();
    while (seen < running && !peak_.compare_exchange_weak(seen, running)) {
    }
  }
  void Leave() { in_flight_.fetch_sub(1); }
  size_t peak() const { return peak_.load(); }

 private:
  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> peak_{0};
};

void SpinFor(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Two-party barrier with a 1 s deadline: true when the other party
// arrived in time.
bool MeetPartner(std::atomic<int>& arrived) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return arrived.load() >= 2;
}

double SerialReferenceSum(size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += static_cast<double>(i % 97);
  return total;
}

TEST(ThreadPoolTest, PoolSpinsUpLazilyAndExecutesEveryIndexOnce) {
  ThreadCountGuard guard(4);
  ShutdownThreadPool();
  EXPECT_EQ(ThreadPoolWorkerCount(), 0u);

  std::vector<std::atomic<uint32_t>> visits(kRows);
  for (auto& v : visits) v.store(0);
  ParallelFor(kRows, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  // 4 requested executors = the caller + 3 pool workers.
  EXPECT_EQ(ThreadPoolWorkerCount(), 3u);
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(visits[i].load(), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadCountGuard guard(4);
  std::atomic<size_t> inner_total{0};
  ParallelFor(kRows, [&](size_t begin, size_t end) {
    // A nested dispatch from inside a chunk body must run serially on
    // this thread — if it tried to re-enter the pool it would park on
    // workers that are already busy here.
    size_t local = 0;
    ParallelFor(end - begin, [&](size_t inner_begin, size_t inner_end) {
      local += inner_end - inner_begin;
    });
    inner_total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(inner_total.load(), kRows);
}

TEST(ThreadPoolTest, ReduceNestedInsideForIsCorrect) {
  ThreadCountGuard guard(4);
  std::atomic<int> mismatches{0};
  ParallelFor(kRows, [&](size_t begin, size_t end) {
    const double nested = ParallelReduce(
        end - begin, [&](size_t inner_begin, size_t inner_end) {
          return static_cast<double>(inner_end - inner_begin);
        });
    if (nested != static_cast<double>(end - begin)) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPoolTest, ThreadCountAboveChunkCountIsSafe) {
  // kRows/4096-ish chunks but far more requested workers: executor count
  // is clamped to the chunk count, extra pool capacity just idles.
  ThreadCountGuard guard(64);
  const double expected = SerialReferenceSum(kRows);
  const double total = ParallelReduce(kRows, [](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      partial += static_cast<double>(i % 97);
    }
    return partial;
  });
  EXPECT_EQ(total, expected);
}

TEST(ThreadPoolTest, RepeatedInitTeardownCycles) {
  for (int cycle = 0; cycle < 5; ++cycle) {
    ThreadCountGuard guard(3);
    const double total =
        ParallelReduce(kRows, [](size_t begin, size_t end) {
          double partial = 0.0;
          for (size_t i = begin; i < end; ++i) {
            partial += static_cast<double>(i % 97);
          }
          return partial;
        });
    EXPECT_EQ(total, SerialReferenceSum(kRows));
    EXPECT_GT(ThreadPoolWorkerCount(), 0u);
    ShutdownThreadPool();
    EXPECT_EQ(ThreadPoolWorkerCount(), 0u);
  }
}

TEST(ThreadPoolTest, GrowAndShrinkThreadCountAcrossDispatches) {
  ShutdownThreadPool();
  const double expected = SerialReferenceSum(kRows);
  auto body = [](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      partial += static_cast<double>(i % 97);
    }
    return partial;
  };
  for (size_t threads : {2, 8, 3, 1, 6}) {
    ThreadCountGuard guard(threads);
    EXPECT_EQ(ParallelReduce(kRows, body), expected)
        << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, SerialPathBypassesPoolEntirely) {
  ShutdownThreadPool();
  ThreadCountGuard guard(1);
  double total = 0.0;  // Unsynchronized on purpose: serial execution.
  ParallelFor(kRows, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) total += 1.0;
  });
  EXPECT_EQ(total, static_cast<double>(kRows));
  EXPECT_EQ(ThreadPoolWorkerCount(), 0u);
}

TEST(ThreadPoolTest, ChunkIndicesMatchPlanAtAnyThreadCount) {
  const size_t chunks = ParallelChunkCount(kRows);
  for (size_t threads : {1, 4, 16}) {
    ThreadCountGuard guard(threads);
    std::vector<std::atomic<uint32_t>> seen(chunks);
    for (auto& s : seen) s.store(0);
    std::atomic<bool> bounds_ok{true};
    ParallelForChunks(kRows, [&](size_t chunk, size_t begin, size_t end) {
      if (chunk >= chunks || begin >= end || end > kRows) {
        bounds_ok.store(false);
      } else {
        seen[chunk].fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_TRUE(bounds_ok.load());
    for (size_t c = 0; c < chunks; ++c) {
      ASSERT_EQ(seen[c].load(), 1u) << "chunk " << c;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentIndependentDispatchesAreBothExact) {
  // Two threads each drive their own ParallelReduce through the shared
  // pool at the same time — the multi-task dispatch path (tasks_ vector,
  // PickTaskLocked) must keep the two chunk ranges fully separate.
  ThreadCountGuard guard(4);
  const double expected = SerialReferenceSum(kRows);
  auto body = [](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      partial += static_cast<double>(i % 97);
    }
    return partial;
  };
  for (int round = 0; round < 10; ++round) {
    double other = 0.0;
    std::thread concurrent([&] { other = ParallelReduce(kRows, body); });
    const double mine = ParallelReduce(kRows, body);
    concurrent.join();
    ASSERT_EQ(mine, expected) << "round " << round;
    ASSERT_EQ(other, expected) << "round " << round;
  }
}

TEST(ThreadPoolTest, CappedDispatchOnGrownPoolNeverExceedsItsCap) {
  // An uncapped 8-thread dispatch grows 7 workers; a later RunTasks at
  // parallelism 2 must engage only one of them for its tasks, and each
  // task's inner loop only its 8 / 2 = 4 executor slice, however many
  // workers are parked and idle.
  ShutdownThreadPool();
  ThreadCountGuard guard(8);
  EXPECT_EQ(ParallelReduce(kRows,
                           [](size_t begin, size_t end) {
                             double partial = 0.0;
                             for (size_t i = begin; i < end; ++i) {
                               partial += static_cast<double>(i % 97);
                             }
                             return partial;
                           }),
            SerialReferenceSum(kRows));
  ASSERT_EQ(ThreadPoolWorkerCount(), 7u);

  constexpr size_t kTasks = 4;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<uint32_t>> visits(kTasks * kRows);
    for (auto& v : visits) v.store(0);
    InFlightPeak tasks;
    InFlightPeak chunks[kTasks];
    RunTasks(kTasks, /*parallelism=*/2, [&](size_t task) {
      tasks.Enter();
      ParallelFor(kRows, [&](size_t begin, size_t end) {
        chunks[task].Enter();
        // Hold the chunk briefly so idle workers have every chance to
        // pile onto the dispatch if the cap let them.
        SpinFor(std::chrono::microseconds(100));
        for (size_t i = begin; i < end; ++i) {
          visits[task * kRows + i].fetch_add(1, std::memory_order_relaxed);
        }
        chunks[task].Leave();
      });
      tasks.Leave();
    });
    ASSERT_LE(tasks.peak(), 2u) << "round " << round;
    for (size_t task = 0; task < kTasks; ++task) {
      ASSERT_LE(chunks[task].peak(), 4u) << "round " << round << " task "
                                         << task;
    }
    for (size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1u) << "round " << round << " index " << i;
    }
  }
}

TEST(RunTasksTest, SequentialBudgetRunsInIndexOrderOnTheCaller) {
  ThreadCountGuard guard(4);
  // parallelism = 1 is the sequential reference walk: tasks run in index
  // order, on the calling thread, one at a time.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> ran;
  bool on_caller = true;
  InFlightPeak tasks;
  RunTasks(8, /*parallelism=*/1, [&](size_t i) {
    tasks.Enter();
    ran.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
    tasks.Leave();
  });
  EXPECT_EQ(tasks.peak(), 1u);
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(ran.size(), 8u);
  for (size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i], i);
}

TEST(RunTasksTest, EveryTaskRunsOnceAndThePeakStaysWithinTheBudget) {
  ThreadCountGuard guard(4);
  // 0 means the whole pool (4); budgets above the pool clamp to it.
  for (size_t parallelism : {0, 1, 2, 3, 4, 100}) {
    const size_t budget = EffectiveParallelism(parallelism);
    EXPECT_EQ(budget, parallelism == 0 || parallelism > 4 ? 4u : parallelism);
    constexpr size_t kTasks = 7;
    std::atomic<size_t> runs[kTasks] = {};
    InFlightPeak tasks;
    RunTasks(kTasks, parallelism, [&](size_t i) {
      tasks.Enter();
      runs[i].fetch_add(1, std::memory_order_relaxed);
      // Linger so executors actually overlap.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      tasks.Leave();
    });
    EXPECT_GE(tasks.peak(), 1u) << "parallelism " << parallelism;
    EXPECT_LE(tasks.peak(), budget) << "parallelism " << parallelism;
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(runs[i].load(), 1u) << "parallelism " << parallelism
                                    << " task " << i;
    }
  }
  RunTasks(0, 0, [](size_t) { FAIL() << "no task to run"; });
}

TEST(RunTasksTest, TasksDispatchingParallelWorkCompose) {
  ThreadCountGuard guard(4);
  // Each task runs its own ParallelReduce on a budget slice; results must
  // be exact regardless of how the slices interleave on the pool.
  constexpr size_t kTasks = 6;
  const double expected = SerialReferenceSum(kRows);
  double sums[kTasks] = {0};
  RunTasks(kTasks, /*parallelism=*/0, [&sums](size_t task) {
    sums[task] = ParallelReduce(kRows, [](size_t begin, size_t end) {
      double partial = 0.0;
      for (size_t i = begin; i < end; ++i) {
        partial += static_cast<double>(i % 97);
      }
      return partial;
    });
  });
  for (size_t task = 0; task < kTasks; ++task) {
    EXPECT_EQ(sums[task], expected) << "task " << task;
  }
}

// Counts RunTasks task bodies run by the current thread.
thread_local int tls_tasks_run = 0;

TEST(RunTasksTest, TasksRunOnPoolWorkersNotOnThreadsMadePerCall) {
  // Two tasks meet at a barrier, so both executors must run one: the
  // caller and one other thread. With one pool worker that other thread
  // is the same worker on every call, so its thread-local count keeps
  // growing; a thread made per call would start again from zero.
  ShutdownThreadPool();
  ThreadCountGuard guard(2);
  const std::thread::id caller = std::this_thread::get_id();
  int other_count = 0;
  for (int call = 1; call <= 3; ++call) {
    std::atomic<int> arrived{0};
    RunTasks(2, /*parallelism=*/2, [&](size_t) {
      MeetPartner(arrived);
      if (std::this_thread::get_id() != caller) {
        other_count = ++tls_tasks_run;
      }
    });
    EXPECT_EQ(other_count, call);
  }
  EXPECT_EQ(ThreadPoolWorkerCount(), 1u);
}

TEST(RunTasksTest, TwoTiersStayWithinThePoolWidth) {
  // Four tasks at parallelism 0 on 4 threads: each task's inner loop
  // gets a 4 / 4 = 1 executor slice, so at most 4 chunk bodies run at
  // once across all tasks, however the tasks' starts interleave.
  ThreadCountGuard guard(4);
  for (int round = 0; round < 10; ++round) {
    InFlightPeak chunks;
    RunTasks(4, /*parallelism=*/0, [&](size_t) {
      ParallelFor(kRows, [&](size_t, size_t) {
        chunks.Enter();
        SpinFor(std::chrono::microseconds(100));
        chunks.Leave();
      });
    });
    ASSERT_LE(chunks.peak(), GetNumThreads()) << "round " << round;
  }
}

TEST(RunTasksTest, ShutdownRacingRunningTasksNeverDeadlocks) {
  // The drain-safety regression: ShutdownThreadPool() fired while tasks
  // are mid-flight (some still unclaimed, some dispatching chunk work
  // into the pool). Every dispatcher participates in its own dispatch
  // and can claim every chunk itself, so every task must complete exactly
  // even when the pool's workers vanish underneath it — serially if need
  // be.
  for (int round = 0; round < 5; ++round) {
    ThreadCountGuard guard(4);
    constexpr size_t kTasks = 8;
    std::atomic<size_t> done{0};
    double sums[kTasks] = {0};
    const double expected = SerialReferenceSum(kRows);
    // A budget of 2 keeps tasks waiting to be claimed while shutdown
    // fires.
    std::thread runner([&sums, &done] {
      RunTasks(kTasks, /*parallelism=*/2, [&sums, &done](size_t task) {
        sums[task] = ParallelReduce(kRows, [](size_t begin, size_t end) {
          double partial = 0.0;
          for (size_t i = begin; i < end; ++i) {
            partial += static_cast<double>(i % 97);
          }
          return partial;
        });
        done.fetch_add(1, std::memory_order_relaxed);
      });
    });
    // Fire teardown mid-run (no sleep: the race window is the point —
    // some rounds hit it early, some late).
    ShutdownThreadPool();
    runner.join();
    ASSERT_EQ(done.load(), kTasks) << "round " << round;
    for (size_t task = 0; task < kTasks; ++task) {
      ASSERT_EQ(sums[task], expected) << "round " << round << " task "
                                      << task;
    }
    // The pool must still be usable after the race.
    EXPECT_EQ(ParallelReduce(kRows,
                             [](size_t begin, size_t end) {
                               double partial = 0.0;
                               for (size_t i = begin; i < end; ++i) {
                                 partial += static_cast<double>(i % 97);
                               }
                               return partial;
                             }),
              expected);
    ShutdownThreadPool();
  }
}

TEST(RunTasksTest, ShutdownRacingADispatchLeavesLiveWorkers) {
  // Shutdown joins the grown pool while the tasks' inner dispatches ask
  // it for workers. A thread spawned during the shutdown exits at once;
  // if the pool still counted it, later dispatches would find no live
  // worker. Two chunks meeting at a barrier need a second executor, so
  // the first waits out its deadline when only the caller runs them.
  const auto body = [](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      partial += static_cast<double>(i % 97);
    }
    return partial;
  };
  const size_t two_chunks = 8192;
  ASSERT_EQ(ParallelChunkCount(two_chunks), 2u);
  ThreadCountGuard guard(4);
  for (int round = 0; round < 10; ++round) {
    ParallelReduce(kRows, body);  // Grow the pool.
    std::thread runner([&body] {
      RunTasks(8, /*parallelism=*/2,
               [&body](size_t) { ParallelReduce(kRows, body); });
    });
    ShutdownThreadPool();
    runner.join();

    std::atomic<int> arrived{0};
    std::atomic<bool> met{true};
    ParallelFor(two_chunks, [&](size_t, size_t) {
      if (!MeetPartner(arrived)) met.store(false);
    });
    ASSERT_TRUE(met.load()) << "round " << round;
  }
  ShutdownThreadPool();
}

}  // namespace
}  // namespace fastcoreset
