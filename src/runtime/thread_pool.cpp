#include "runtime/thread_pool.h"

#include "common/error.h"

namespace oasis::runtime {
namespace {

// Identifies the pool (and slot) the calling thread belongs to, so submits
// from inside a task go depth-first onto the worker's own deque.
thread_local const ThreadPool* t_pool = nullptr;
thread_local std::size_t t_worker_id = 0;

}  // namespace

ThreadPool::ThreadPool(index_t num_workers) {
  OASIS_CHECK_MSG(num_workers >= 1, "ThreadPool needs >= 1 worker");
  queues_.reserve(num_workers);
  for (index_t i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_workers);
  for (index_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(sleep_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}


void ThreadPool::submit(Task task) {
  std::size_t target;
  if (t_pool == this) {
    target = t_worker_id;
  } else {
    std::lock_guard lock(sleep_mutex_);
    target = next_queue_++ % queues_.size();
  }
  {
    std::lock_guard lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard lock(sleep_mutex_);
    ++pending_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t worker_id, Task& out) {
  auto& q = *queues_[worker_id];
  std::lock_guard lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // own work: newest first (cache-warm)
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::try_steal(std::size_t worker_id, Task& out) {
  const std::size_t n = queues_.size();
  for (std::size_t off = 1; off < n; ++off) {
    auto& q = *queues_[(worker_id + off) % n];
    std::lock_guard lock(q.mutex);
    if (q.tasks.empty()) continue;
    out = std::move(q.tasks.front());  // stolen work: oldest first
    q.tasks.pop_front();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  t_pool = this;
  t_worker_id = worker_id;
  while (true) {
    Task task;
    if (try_pop(worker_id, task) || try_steal(worker_id, task)) {
      {
        std::lock_guard lock(sleep_mutex_);
        --pending_;
      }
      task();
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    if (stopping_ && pending_ == 0) return;
    wake_cv_.wait(lock, [this] { return pending_ > 0 || stopping_; });
    if (stopping_ && pending_ == 0) return;
  }
}

}  // namespace oasis::runtime
