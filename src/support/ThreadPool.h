//===- support/ThreadPool.h - Shared worker pool --------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool with one FIFO task queue. Its client is the
/// in-process `csdf batch` threads mode, which hands it whole analysis
/// sessions (sharing one cross-session ClosureMemo). Tasks are coarse, so
/// a single queue under a single mutex is never the bottleneck.
///
/// The pool is deliberately policy-free: tasks are plain closures, and
/// every isolation concern (budget scopes, recovery scopes) belongs to
/// the caller. Thread-local context does NOT propagate onto workers: a
/// task that needs an AnalysisBudget must install it itself with
/// BudgetScope (as every analysis session does).
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_SUPPORT_THREADPOOL_H
#define CSDF_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace csdf {

class ThreadPool {
public:
  /// Starts \p Workers worker threads (at least 1).
  explicit ThreadPool(unsigned Workers);

  /// Waits for running tasks to finish; tasks still queued are discarded.
  /// Callers that must observe every result (futures, batch reports) wait
  /// for them before destroying the pool.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workerCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Enqueues \p Fn and returns a future for its result (or exception).
  template <typename Fn> auto submit(Fn &&F) {
    using R = std::invoke_result_t<Fn>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(F));
    std::future<R> Out = Task->get_future();
    run([Task] { (*Task)(); });
    return Out;
  }

  /// The machine's hardware thread count (at least 1).
  static unsigned hardwareThreads();

private:
  /// Enqueues a task that must not throw (submit's packaged_task wrapper).
  void run(std::function<void()> Task);
  void workerMain();

  /// Guards Tasks and Stop; IdleCv waits on it, so a submit can never
  /// slip between a worker's emptiness check and its sleep.
  std::mutex M;
  std::condition_variable IdleCv;
  std::deque<std::function<void()>> Tasks;
  bool Stop = false;
  /// Declared last: workers start in the constructor and use the above.
  std::vector<std::thread> Workers;
};

} // namespace csdf

#endif // CSDF_SUPPORT_THREADPOOL_H
