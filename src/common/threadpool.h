// Deterministic fork-join worker pool.
//
// Its one job is the ShardedSimulator window (sim/sharded.h): each
// conservative time window forks one task per event island, every
// island advances to the window end on whichever thread claimed it, and
// the join is the barrier after which the coordinating thread drains
// the cross-island mailbox. Each island is a self-contained Simulator,
// so the simulator core itself stays single-threaded.
//
// Determinism contract (what callers must uphold, and what
// parallel_for guarantees):
//  * Tasks are enqueued in a fixed index order [0, n) decided before
//    the fork. Threads claim indices dynamically (which thread runs
//    which index is scheduling noise), so each task must depend only on
//    its own inputs — never on another task's output.
//  * Each task writes only state it owns (for the sharded simulator:
//    its island and that island's outbox). The joined result set is
//    therefore independent of thread count and claim order.
//  * parallel_for returns only after every task has finished (a full
//    barrier), so the caller can consume results serially, in task
//    order, on the coordinating thread.
//
// The hot path allocates nothing: tasks are a raw function pointer plus
// a context pointer (the caller keeps the real closure on its stack),
// claiming is one atomic fetch_add per task, and the calling thread
// participates as worker zero instead of blocking while the spawned
// threads do the work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace slingshot {

class ThreadPool {
 public:
  // `num_workers` includes the calling thread: a pool of N spawns N-1
  // threads, and parallel_for(n, ...) runs tasks on up to N threads.
  // num_workers <= 1 spawns nothing and parallel_for degenerates to a
  // serial loop.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_workers() const { return num_workers_; }

  // Run fn(ctx, task_index) for every task_index in [0, n), blocking
  // until all tasks complete. The calling thread runs tasks too. Must
  // be called from the thread that owns the pool (not from inside a
  // task).
  void parallel_for(std::size_t n, void (*fn)(void*, std::size_t),
                    void* ctx);

  // Type-safe wrapper: `body` is any callable taking
  // (std::size_t task_index). The callable lives on the caller's
  // stack — no allocation, no std::function.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body) {
    using B = std::remove_reference_t<Body>;
    parallel_for(
        n,
        [](void* ctx, std::size_t i) { (*static_cast<B*>(ctx))(i); },
        const_cast<std::remove_const_t<B>*>(std::addressof(body)));
  }

 private:
  void worker_loop();
  // Claim-and-run loop shared by workers and the caller; returns the
  // number of tasks this thread completed.
  std::size_t run_tasks();

  const int num_workers_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;   // bumped once per parallel_for fork
  bool stopping_ = false;

  // Current job. fn/ctx/n are stable from publish until the join
  // completes (workers hold active_ > 0 while reading them); claiming
  // is the one lock-free operation on the task path.
  void (*job_fn_)(void*, std::size_t) = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t job_n_ = 0;
  std::atomic<std::size_t> next_task_{0};
  // Guarded by mutex_: tasks not yet accounted for, and workers
  // currently between check-in and check-out.
  std::size_t pending_ = 0;
  int active_ = 0;
};

}  // namespace slingshot
