#ifndef TSDM_COMMON_THREAD_POOL_H_
#define TSDM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tsdm {

/// A pool of worker threads draining a shared FIFO task queue.
/// Deliberately work-stealing-free: one mutex-guarded queue keeps the
/// dispatch order deterministic enough to reason about and is plenty for
/// coarse-grained shard tasks (each task runs a whole pipeline over a
/// shard, so queue contention is negligible).
///
/// Tasks must not throw; the library's no-exceptions convention applies.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int NumThreads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. The pool is
  /// reusable after Wait() returns.
  void Wait();

  /// Index of the calling worker thread within its pool ([0, NumThreads)),
  /// or -1 when called from a thread this class did not spawn. Lets tasks
  /// write to per-worker slots (e.g. metrics shards) without locks.
  static int CurrentWorkerId();

 private:
  void WorkerLoop(int worker_id);

  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running tasks
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tsdm

#endif  // TSDM_COMMON_THREAD_POOL_H_
