#ifndef FAIRMOVE_COMMON_PARALLEL_H_
#define FAIRMOVE_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "fairmove/common/macros.h"

namespace fairmove {

/// Health counters of one pool, polled by the observability layer. Counters
/// only move on the parallel branch of ParallelFor — the exact-serial
/// `num_threads == 1` path stays atomic-free per the determinism contract.
/// Queue-wait numbers are zero unless ThreadPool::SetTimingEnabled(true)
/// (flipped on by telemetry) because taking timestamps per worker join is
/// not free. A queue wait is the time from a region being opened to a worker
/// joining it, one sample per join.
struct PoolStats {
  int64_t regions = 0;             // parallel regions executed
  int64_t tasks = 0;               // task indices dispatched to regions
  int64_t queue_wait_ns_total = 0; // region open -> worker join latency
  int64_t queue_wait_ns_max = 0;
};

/// Fixed-size worker pool behind every task-parallel layer of the library
/// (the repeated-experiment grid, the evaluator's method fan-out, sharded
/// batched NN inference, the region-sharded simulator step).
///
/// There is no task queue and no per-call heap state. A ParallelFor region
/// is a record on the caller's stack, linked into the pool's list of open
/// regions for the duration of the call; idle workers block on a condition
/// variable and join any open region that still has unclaimed indices,
/// including regions opened from inside another region's task, so nested
/// regions stay parallel. A warm caller therefore never touches the heap.
///
/// Determinism is a hard contract, achieved structurally rather than with
/// locks: a parallel region only runs tasks that write to disjoint,
/// task-index-addressed slots, and every reduction happens on the calling
/// thread in ascending task index order after the region completes. Under
/// that discipline any thread count — including the exact-serial
/// `num_threads == 1` path, which never touches a worker or an atomic —
/// produces byte-identical results.
class ThreadPool {
 public:
  /// A pool of total concurrency `num_threads >= 1`: `num_threads - 1`
  /// workers are spawned and the thread inside ParallelFor()/Wait() acts as
  /// the n-th lane. `num_threads == 1` spawns nothing and runs everything
  /// inline on the caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(0) ... fn(n-1), each exactly once, returning when all have
  /// finished. Indices are claimed dynamically (the layers above submit
  /// coarse tasks, so claim order does not matter for balance) and the
  /// caller participates: it runs indices of its own region until none are
  /// left, then waits only for workers still inside that region. This makes
  /// nested ParallelFor from inside a task deadlock-free even when every
  /// worker is busy (the inner caller simply runs its own indices), while
  /// idle workers still join the inner region. If tasks throw, the region
  /// still accounts every index and rethrows the exception of the lowest
  /// failing index, so which error surfaces is as thread-count-independent
  /// as every other output. The region itself allocates nothing; hot
  /// callers pass a prebuilt `fn` so that converting a lambda does not
  /// allocate either.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Heterogeneous companion to ParallelFor for a batch of unrelated tasks.
  /// Spawn() only records the task; the batch starts at Wait(), which runs
  /// the tasks across the pool (caller participating) and rethrows the
  /// exception of the lowest-spawn-index failure. The group is empty and
  /// reusable after Wait() returns.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool) : pool_(pool) {
      FM_CHECK(pool != nullptr);
    }
    void Spawn(std::function<void()> fn) { tasks_.push_back(std::move(fn)); }
    void Wait();

   private:
    ThreadPool* pool_;
    std::vector<std::function<void()>> tasks_;
  };

  /// Snapshot of this pool's health counters (observational only).
  PoolStats stats() const;

  /// Process-wide gate for queue-wait timestamping. Off by default; the
  /// telemetry layer turns it on so latency is only measured when someone
  /// will read it.
  static void SetTimingEnabled(bool on);
  static bool TimingEnabled();

  /// Optional per-sample tap on the queue-wait measurements (only fired
  /// while timing is enabled). The observability layer installs a callback
  /// that feeds its live latency histograms; common/ stays free of any
  /// dependency on obs/. The callback must be lock-free-cheap — it runs on
  /// worker threads each time one joins a region.
  using QueueWaitObserver = void (*)(int64_t wait_ns);
  static void SetQueueWaitObserver(QueueWaitObserver observer);

 private:
  struct Region;

  void WorkerLoop();
  /// First open region with unclaimed indices, or nullptr. Needs mu_.
  Region* FindOpenRegion() const;
  void RecordQueueWait(int64_t wait_ns);

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // a region opened, or shutdown
  std::condition_variable idle_cv_;  // last worker left a waited-on region
  Region* open_head_ = nullptr;      // intrusive list of open regions, by mu_
  Region* open_tail_ = nullptr;
  bool shutdown_ = false;

  std::atomic<int64_t> regions_{0};
  std::atomic<int64_t> tasks_{0};
  std::atomic<int64_t> queue_wait_ns_total_{0};
  std::atomic<int64_t> queue_wait_ns_max_{0};
};

/// Thread count the process-wide pool is sized with: FAIRMOVE_THREADS when
/// set (>= 1; malformed values abort — a typo must not silently serialise
/// an experiment), otherwise std::thread::hardware_concurrency().
int EffectiveThreadCount();

/// Process-wide pool, lazily constructed with EffectiveThreadCount() lanes.
ThreadPool& GlobalPool();

/// Replaces the global pool so subsequent GlobalPool() calls see `n` lanes
/// (1 restores the exact serial path). Joins the previous pool's workers;
/// must not be called while parallel work is in flight. Meant for bench
/// thread sweeps and test setup.
void SetGlobalThreads(int n);

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_PARALLEL_H_
