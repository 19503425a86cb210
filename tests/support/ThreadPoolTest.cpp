//===- tests/support/ThreadPoolTest.cpp - Worker pool tests ----------------===//
//
// The worker pool behind batch threads mode. The contract under test:
// every submitted task runs exactly once, results and exceptions flow
// through futures, a slow task on one worker cannot starve the others, a
// submit never loses its wakeup, and destruction joins running tasks.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace csdf;

namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);

  constexpr int N = 500;
  std::atomic<int> Ran{0};
  std::vector<std::future<void>> Done;
  Done.reserve(N);
  for (int I = 0; I < N; ++I)
    Done.push_back(Pool.submit([&Ran] { Ran.fetch_add(1); }));
  for (auto &F : Done)
    F.get();
  EXPECT_EQ(Ran.load(), N);
}

TEST(ThreadPoolTest, SubmitReturnsValuesThroughFutures) {
  ThreadPool Pool(3);
  std::vector<std::future<int>> Results;
  for (int I = 0; I < 64; ++I)
    Results.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Results[static_cast<size_t>(I)].get(), I * I);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool Pool(2);
  std::future<int> F =
      Pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(F.get(), std::runtime_error);

  // The pool survives a throwing task: later work still runs.
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, SlowTaskDoesNotStarveOtherShards) {
  // The blocker holds one worker; the fast tasks queued behind it must
  // run on the others. Release the blocker only after every fast task
  // finished, so the test deadlocks (and times out) if they cannot.
  ThreadPool Pool(4);
  std::promise<void> Release;
  std::shared_future<void> Gate = Release.get_future().share();
  std::future<void> Blocked = Pool.submit([Gate] { Gate.wait(); });

  constexpr int N = 100;
  std::atomic<int> Fast{0};
  std::vector<std::future<void>> Done;
  for (int I = 0; I < N; ++I)
    Done.push_back(Pool.submit([&Fast] { Fast.fetch_add(1); }));
  for (auto &F : Done)
    F.get();
  EXPECT_EQ(Fast.load(), N);

  Release.set_value();
  Blocked.get();
}

TEST(ThreadPoolTest, ConcurrentSubmittersAreSafe) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  constexpr int PerThread = 200;

  std::vector<std::thread> Submitters;
  std::vector<std::vector<std::future<void>>> Futures(4);
  for (int T = 0; T < 4; ++T)
    Submitters.emplace_back([&Pool, &Ran, &Futures, T] {
      for (int I = 0; I < PerThread; ++I)
        Futures[static_cast<size_t>(T)].push_back(
            Pool.submit([&Ran] { Ran.fetch_add(1); }));
    });
  for (auto &T : Submitters)
    T.join();
  for (auto &Fs : Futures)
    for (auto &F : Fs)
      F.get();
  EXPECT_EQ(Ran.load(), 4 * PerThread);
}

TEST(ThreadPoolTest, DestructorJoinsRunningTasks) {
  std::atomic<bool> Finished{false};
  {
    ThreadPool Pool(2);
    std::future<void> Running = Pool.submit([&Finished] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Finished.store(true);
    });
    // Give the worker time to dequeue it so it counts as "running".
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // ~ThreadPool waits for running tasks; the store must be visible now.
  EXPECT_TRUE(Finished.load());
}

TEST(ThreadPoolTest, SingleWorkerPoolStillDrains) {
  ThreadPool Pool(1);
  int Sum = 0;
  std::vector<std::future<void>> Done;
  for (int I = 1; I <= 10; ++I)
    Done.push_back(Pool.submit([&Sum, I] { Sum += I; }));
  for (auto &F : Done)
    F.get();
  EXPECT_EQ(Sum, 55);
}

TEST(ThreadPoolTest, SubmitRightAfterConstructionIsNeverLost) {
  // A fresh worker may be between finding the queue empty and going to
  // sleep when the first task arrives; that task must still wake it. The
  // window is narrow, so try many fresh pools.
  for (int I = 0; I < 200; ++I) {
    ThreadPool Pool(1);
    std::future<void> Done = Pool.submit([] {});
    ASSERT_EQ(Done.wait_for(std::chrono::seconds(2)),
              std::future_status::ready)
        << "wakeup lost on fresh pool " << I;
  }
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

} // namespace
