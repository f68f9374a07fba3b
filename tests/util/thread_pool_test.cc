#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

namespace wavekit {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter]() { ++counter; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
}

TEST(ThreadPoolTest, MultipleWaitRounds) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&counter]() { ++counter; });
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, UsesMultipleThreads) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::atomic<int> gate{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&]() {
      ++gate;
      // Hold until several tasks are in flight so distinct workers engage.
      while (gate.load() < 4) std::this_thread::yield();
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
  }
  pool.Wait();
  EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPoolTest, DestructionDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) pool.Submit([&counter]() { ++counter; });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  // Destroying the pool with tasks still queued must execute every one of
  // them, not drop them: a single slow task occupies the lone worker while
  // the rest sit in the queue at destruction time.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    pool.Submit([]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    for (int i = 0; i < 64; ++i) pool.Submit([&counter]() { ++counter; });
    // No Wait: the destructor is responsible for the drain.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ReentrantSubmitFromWorkerIsCoveredByWait) {
  // A task fans out children from inside a worker; Wait must cover the whole
  // tree, not just the directly submitted roots.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int root = 0; root < 8; ++root) {
    pool.Submit([&pool, &counter]() {
      ++counter;
      for (int child = 0; child < 4; ++child) {
        pool.Submit([&pool, &counter]() {
          ++counter;
          pool.Submit([&counter]() { ++counter; });  // grandchild
        });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 8 * (1 + 4 + 4));
}

TEST(ThreadPoolTest, ShutdownDrainsReentrantSubmits) {
  // Tasks that submit children during the destructor's drain must have those
  // children executed too.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&pool, &counter]() {
        ++counter;
        pool.Submit([&counter]() { ++counter; });
      });
    }
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, SubmitConcurrentWithWaitIsSafe) {
  // One thread Waits in a loop while others keep submitting: no deadlock, no
  // lost task; a final Wait after the submitters join covers everything.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kPerThread = 500;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&pool, &counter]() {
      for (int i = 0; i < kPerThread; ++i) {
        pool.Submit([&counter]() { ++counter; });
      }
    });
  }
  for (int i = 0; i < 50; ++i) pool.Wait();  // racing Waits are legal
  for (std::thread& s : submitters) s.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), 3 * kPerThread);
}

TEST(WaitGroupTest, JoinsOnlyItsOwnTasks) {
  // A WaitGroup's Wait must return once ITS tasks are done, even while an
  // unrelated task (e.g. another stage's work on the same pool) is running.
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<int> unrelated{0};
  pool.Submit([&]() {
    while (!release.load()) std::this_thread::yield();
    ++unrelated;
  });
  std::atomic<int> group_count{0};
  {
    ThreadPool::WaitGroup group(&pool);
    for (int i = 0; i < 8; ++i) group.Submit([&group_count]() { ++group_count; });
    group.Wait();
    EXPECT_EQ(group_count.load(), 8);
    // The unrelated task is still parked: the group did not drain the pool.
    EXPECT_EQ(unrelated.load(), 0);
  }
  release.store(true);
  pool.Wait();
  EXPECT_EQ(unrelated.load(), 1);
}

TEST(WaitGroupTest, ReentrantSubmitDuringWaitIsCovered) {
  // Tasks submitted through the group from inside its own running tasks
  // (while the coordinator is already blocked in Wait) must be covered by
  // that same Wait — the pending count is raised before the parent finishes.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  ThreadPool::WaitGroup group(&pool);
  for (int root = 0; root < 8; ++root) {
    group.Submit([&group, &counter]() {
      ++counter;
      group.Submit([&group, &counter]() {
        ++counter;
        group.Submit([&counter]() { ++counter; });  // grandchild
      });
    });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 8 * 3);
  EXPECT_EQ(group.pending(), 0);
}

TEST(WaitGroupTest, DestructorIsABackstopWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  {
    ThreadPool::WaitGroup group(&pool);
    for (int i = 0; i < 32; ++i) group.Submit([&counter]() { ++counter; });
    // No explicit Wait: the destructor joins.
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(WaitGroupTest, GroupsOnOnePoolAreIndependent) {
  // Two concurrent stages on one pool: each group's Wait covers exactly its
  // own submissions, in any interleaving.
  ThreadPool pool(4);
  std::atomic<int> a_count{0}, b_count{0};
  ThreadPool::WaitGroup a(&pool), b(&pool);
  for (int i = 0; i < 16; ++i) {
    a.Submit([&a_count]() { ++a_count; });
    b.Submit([&b_count]() { ++b_count; });
  }
  a.Wait();
  EXPECT_EQ(a_count.load(), 16);
  b.Wait();
  EXPECT_EQ(b_count.load(), 16);
}

TEST(WaitGroupTest, ReusableAfterWait) {
  // A group can run several rounds: Wait resets nothing, the count just
  // returns to zero and new submissions raise it again.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  ThreadPool::WaitGroup group(&pool);
  for (int round = 1; round <= 4; ++round) {
    for (int i = 0; i < 10; ++i) group.Submit([&counter]() { ++counter; });
    group.Wait();
    EXPECT_EQ(counter.load(), round * 10);
  }
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran]() { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace wavekit
