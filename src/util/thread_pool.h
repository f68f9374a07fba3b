// ThreadPool: a small fixed-size worker pool.
//
// WaveService runs its maintenance fan-out (parallel packed builds, CP
// clones, REINDEX++ ladder rungs) and its async-advance runner on
// ThreadPools. Queries never use one: each probe and scan runs on the thread
// that called it.

#ifndef WAVEKIT_UTIL_THREAD_POOL_H_
#define WAVEKIT_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace wavekit {

/// \brief Fixed set of worker threads executing submitted tasks FIFO.
///
/// Concurrency contract (relied on by WaveService's maintenance stages and
/// its async-advance runner):
///  - Submit is safe from any thread at any time before destruction begins,
///    INCLUDING from a task running on a worker (reentrant submits) and
///    concurrently with Wait.
///  - Wait blocks until the pool is idle: every task submitted
///    happens-before the Wait call has finished, including children those
///    tasks submitted transitively. Tasks submitted concurrently with Wait
///    (from other threads) may or may not be covered — call Wait again.
///  - Destruction drains: queued tasks (and tasks they submit) all execute
///    before the destructor returns. No task is dropped.
///  - Tasks must not throw (an escaping exception terminates the process)
///    and must not call Wait (a worker waiting for itself deadlocks).
///
/// Submit/Wait are virtual so a deterministic drop-in can honor the same
/// contract without real threads: testing::SimExecutor queues every task and
/// runs them single-threaded in a seeded pseudo-random order when Wait (or a
/// WaitGroup::Wait) drains it. Code written against ThreadPool* simulates
/// for free.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  virtual ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker.
  virtual void Submit(std::function<void()> task);

  /// Blocks until every previously submitted task (and its transitive
  /// reentrant children) has finished executing.
  virtual void Wait();

  /// \brief Scoped join over a subset of a pool's tasks.
  ///
  /// ThreadPool::Wait drains the WHOLE pool, so a stage calling it would
  /// also block on work other stages submitted. A WaitGroup counts only the
  /// tasks submitted through it, so a parallel build stage joins exactly its
  /// own children:
  ///
  ///   ThreadPool::WaitGroup group(pool);
  ///   for (auto& part : partitions) group.Submit([&] { Sort(part); });
  ///   group.Wait();  // only the Sort tasks
  ///
  /// Contract:
  ///  - Submit is safe from any thread, including from a task already running
  ///    in this group (reentrant submits); Wait covers such children because
  ///    the pending count is raised before the parent's completion lowers it.
  ///  - Wait must NOT be called from a pool worker (same rule as
  ///    ThreadPool::Wait): with all workers blocked in Wait the children
  ///    could never run. Maintenance code keeps every Wait on the
  ///    coordinator thread.
  ///  - The group must outlive its tasks; the destructor Waits as a backstop.
  class WaitGroup {
   public:
    explicit WaitGroup(ThreadPool* pool) : pool_(pool) {}
    ~WaitGroup() { Wait(); }

    WaitGroup(const WaitGroup&) = delete;
    WaitGroup& operator=(const WaitGroup&) = delete;

    /// Enqueues `task` on the pool and counts it toward this group's Wait.
    void Submit(std::function<void()> task);

    /// Blocks until every task submitted through this group (including
    /// reentrant children submitted through it) has finished.
    void Wait();

    /// Tasks submitted through this group still queued or running.
    int pending() const;

   private:
    ThreadPool* pool_;
    mutable std::mutex mutex_;
    std::condition_variable done_;
    int pending_ = 0;
  };

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks queued and not yet picked up by a worker (point-in-time sample;
  /// safe from any thread — used by the observability layer).
  virtual size_t queue_depth() const;

  /// Queued + currently executing tasks (the count Wait waits to hit zero).
  virtual int in_flight() const;

 protected:
  /// For executor subclasses that schedule tasks themselves: spawns no
  /// workers and leaves the base queue unused.
  ThreadPool() = default;

  /// Called by WaitGroup::Wait before it blocks on the group's condition.
  /// Worker-backed pools need nothing (workers drain the queue); an executor
  /// with no workers overrides this to run its queued tasks inline on the
  /// waiting thread, so the group's pending count can reach zero.
  virtual void DrainForWait() {}

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  // Queued + currently executing tasks. A task's reentrant Submit increments
  // this before the parent's own completion decrements it, so Wait (which
  // waits for zero) cannot wake between a parent finishing and its children
  // starting.
  int in_flight_ = 0;
  bool shutting_down_ = false;
};

/// \brief How much parallelism a maintenance stage may use, and on which
/// pool. Default-constructed = serial: the stage runs the exact single-thread
/// code path, so cost-model runs reproduce byte-identically.
///
/// Stages fan work out through a ThreadPool::WaitGroup and join on the
/// calling (coordinator) thread; per WaitGroup's contract the coordinator
/// must not itself be a worker of `pool`.
struct ParallelContext {
  ThreadPool* pool = nullptr;
  int threads = 1;

  /// True when a stage should take its parallel path.
  bool enabled() const { return pool != nullptr && threads > 1; }

  /// Partition count for `items` units of work: at most `threads`, at least
  /// 1, never more than the number of items.
  size_t Partitions(size_t items) const {
    if (!enabled() || items == 0) return 1;
    return std::min(items, static_cast<size_t>(threads));
  }
};

/// Calls fn(part, begin, end) for each of parallel.Partitions(items)
/// contiguous slices of [0, items): as tasks on the pool when `parallel` is
/// enabled, inline as one slice otherwise. `fn` returns a Status; the result
/// is the first failed slice's, in slice order.
template <typename Fn>
Status ForEachSlice(const ParallelContext& parallel, size_t items,
                    const Fn& fn) {
  if (!parallel.enabled()) return fn(size_t{0}, size_t{0}, items);
  const size_t parts = parallel.Partitions(items);
  std::vector<Status> status(parts);
  {
    ThreadPool::WaitGroup group(parallel.pool);
    for (size_t p = 0; p < parts; ++p) {
      group.Submit([&fn, &status, p, parts, items]() {
        status[p] = fn(p, items * p / parts, items * (p + 1) / parts);
      });
    }
    group.Wait();
  }
  for (Status& failed : status) {
    if (!failed.ok()) return std::move(failed);
  }
  return Status::OK();
}

}  // namespace wavekit

#endif  // WAVEKIT_UTIL_THREAD_POOL_H_
