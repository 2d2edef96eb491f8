// Fixed-size work-stealing thread pool.
//
// Each worker owns a deque: it pushes/pops its own work LIFO (cache-warm)
// and steals FIFO from siblings when idle (oldest work first, the classic
// Blumofe–Leiserson discipline). The pool never makes scheduling decisions
// that affect numeric results — `parallel_for`/`parallel_reduce` (parallel.h)
// partition work deterministically and only use the pool for execution, so
// WHERE a chunk runs is nondeterministic but WHAT it computes never is.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace oasis::runtime {

/// A pool of `num_workers` long-lived threads executing submitted tasks.
///
/// Tasks are type-erased `void()` closures. Exceptions must not escape a
/// task (the higher-level primitives in parallel.h capture and re-throw
/// them in the submitting thread); a throwing raw task terminates.
class ThreadPool {
 public:
  explicit ThreadPool(index_t num_workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  using Task = std::function<void()>;

  /// Enqueues a task. Called from a worker of THIS pool it pushes onto the
  /// worker's own deque (depth-first, stealable by siblings); from any other
  /// thread it round-robins across workers.
  void submit(Task task);

  [[nodiscard]] index_t num_workers() const { return workers_.size(); }

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t worker_id);
  bool try_pop(std::size_t worker_id, Task& out);
  bool try_steal(std::size_t worker_id, Task& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex sleep_mutex_;
  std::condition_variable wake_cv_;
  // Queued-but-unclaimed tasks; guarded by sleep_mutex_ so sleepers never
  // miss a submit between their emptiness check and the wait.
  index_t pending_ = 0;
  bool stopping_ = false;
  std::size_t next_queue_ = 0;  // round-robin cursor for external submits
};

}  // namespace oasis::runtime
