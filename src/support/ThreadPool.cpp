//===- support/ThreadPool.cpp ---------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace csdf;

unsigned ThreadPool::hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned NumWorkers) {
  NumWorkers = std::max(1u, NumWorkers);
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(M);
    Stop = true;
  }
  IdleCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  // Tasks still queued are dropped deliberately: by contract, callers that
  // need a task's effect hold a future and wait for it before tearing the
  // pool down.
}

void ThreadPool::run(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> L(M);
    Tasks.push_back(std::move(Task));
  }
  IdleCv.notify_one();
}

void ThreadPool::workerMain() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> L(M);
      IdleCv.wait(L, [this] { return Stop || !Tasks.empty(); });
      if (Stop)
        return;
      Task = std::move(Tasks.front());
      Tasks.pop_front();
    }
    Task();
  }
}
