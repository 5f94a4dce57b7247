#include "fairmove/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>

#include "fairmove/common/config.h"

namespace fairmove {

namespace {

std::atomic<bool> g_pool_timing{false};
std::atomic<ThreadPool::QueueWaitObserver> g_queue_wait_observer{nullptr};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void ThreadPool::SetTimingEnabled(bool on) {
  g_pool_timing.store(on, std::memory_order_relaxed);
}

bool ThreadPool::TimingEnabled() {
  return g_pool_timing.load(std::memory_order_relaxed);
}

void ThreadPool::SetQueueWaitObserver(QueueWaitObserver observer) {
  g_queue_wait_observer.store(observer, std::memory_order_release);
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.regions = regions_.load(std::memory_order_relaxed);
  s.tasks = tasks_.load(std::memory_order_relaxed);
  s.queue_wait_ns_total = queue_wait_ns_total_.load(std::memory_order_relaxed);
  s.queue_wait_ns_max = queue_wait_ns_max_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::RecordQueueWait(int64_t wait_ns) {
  queue_wait_ns_total_.fetch_add(wait_ns, std::memory_order_relaxed);
  int64_t prev = queue_wait_ns_max_.load(std::memory_order_relaxed);
  while (wait_ns > prev && !queue_wait_ns_max_.compare_exchange_weak(
                               prev, wait_ns, std::memory_order_relaxed)) {
  }
  if (QueueWaitObserver observer =
          g_queue_wait_observer.load(std::memory_order_acquire)) {
    observer(wait_ns);
  }
}

/// One ParallelFor region. Lives on the caller's stack and is reachable by
/// workers only while linked into the pool's open list. The caller unlinks
/// it and then waits until no worker is inside, so no worker touches it once
/// the call is over.
struct ThreadPool::Region {
  /// `joined` bit set once the caller waits for the workers inside.
  static constexpr int64_t kCallerWaiting = int64_t{1} << 32;

  const std::function<void(int64_t)>* fn = nullptr;
  int64_t n = 0;
  std::atomic<int64_t> next{0};
  /// Workers inside (low bits) plus kCallerWaiting. Incremented only under
  /// the pool mutex while linked; a worker's decrement is its last access,
  /// and releases its task writes to the caller.
  std::atomic<int64_t> joined{0};
  /// When the region was opened; 0 while queue-wait timing is off.
  int64_t open_ns = 0;
  // Guarded by the pool mutex.
  Region* prev_open = nullptr;
  Region* next_open = nullptr;
  int64_t error_index = std::numeric_limits<int64_t>::max();
  std::exception_ptr error;

  /// Runs the already-claimed index `i`, then claims and runs indices until
  /// none are left. `mu` guards the error slot.
  void RunFrom(int64_t i, std::mutex& mu) {
    for (; i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  FM_CHECK(num_threads >= 1) << "ThreadPool needs >= 1 thread";
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool::Region* ThreadPool::FindOpenRegion() const {
  for (Region* r = open_head_; r != nullptr; r = r->next_open) {
    if (r->next.load(std::memory_order_relaxed) < r->n) return r;
  }
  return nullptr;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Region* region = nullptr;
    work_cv_.wait(lock, [&] {
      return shutdown_ || (region = FindOpenRegion()) != nullptr;
    });
    if (shutdown_) return;
    // Claim the first index before joining, so `joined` only counts
    // workers with work and the caller never waits on one that has none.
    const int64_t first = region->next.fetch_add(1, std::memory_order_relaxed);
    if (first >= region->n) continue;
    region->joined.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    if (region->open_ns != 0) RecordQueueWait(NowNs() - region->open_ns);
    region->RunFrom(first, mu_);
    const bool wake_caller =
        region->joined.fetch_sub(1, std::memory_order_acq_rel) ==
        (Region::kCallerWaiting | 1);
    lock.lock();
    if (wake_caller) {
      // Taking the mutex first means the caller is either asleep or yet to
      // test its predicate; notify unlocked so it wakes to a free mutex.
      lock.unlock();
      idle_cv_.notify_all();
      lock.lock();
    }
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (num_threads_ == 1 || n == 1) {
    // Exact serial path: no shared state, no workers, no atomics.
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  regions_.fetch_add(1, std::memory_order_relaxed);
  tasks_.fetch_add(n, std::memory_order_relaxed);
  Region region;
  region.fn = &fn;
  region.n = n;
  if (TimingEnabled()) region.open_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    region.prev_open = open_tail_;
    (open_tail_ != nullptr ? open_tail_->next_open : open_head_) = &region;
    open_tail_ = &region;
  }
  // At most n - 1 helpers; the caller is the remaining lane. A woken worker
  // that finds the indices already claimed goes back to sleep.
  const int64_t helpers = std::min<int64_t>(num_threads_ - 1, n - 1);
  if (helpers == num_threads_ - 1) {
    work_cv_.notify_all();
  } else {
    for (int64_t h = 0; h < helpers; ++h) work_cv_.notify_one();
  }
  region.RunFrom(region.next.fetch_add(1, std::memory_order_relaxed), mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    (region.prev_open != nullptr ? region.prev_open->next_open : open_head_) =
        region.next_open;
    (region.next_open != nullptr ? region.next_open->prev_open : open_tail_) =
        region.prev_open;
  }
  // Unlinked, so no worker joins any more; wait out the ones inside.
  if (region.joined.fetch_or(Region::kCallerWaiting,
                             std::memory_order_acq_rel) != 0) {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] {
      return region.joined.load(std::memory_order_acquire) ==
             Region::kCallerWaiting;
    });
  }
  // The exception is released here, on the caller, never on a worker.
  if (region.error) std::rethrow_exception(region.error);
}

void ThreadPool::TaskGroup::Wait() {
  std::vector<std::function<void()>> tasks = std::move(tasks_);
  tasks_.clear();
  pool_->ParallelFor(static_cast<int64_t>(tasks.size()),
                     [&tasks](int64_t i) { tasks[static_cast<size_t>(i)](); });
}

int EffectiveThreadCount() {
  static const int count = [] {
    if (const char* v = std::getenv("FAIRMOVE_THREADS")) {
      const StatusOr<int64_t> parsed = ParseInt(v);
      FM_CHECK(parsed.ok() && *parsed >= 1 && *parsed <= 4096)
          << "FAIRMOVE_THREADS must be an integer in [1, 4096], got '" << v
          << "'";
      return static_cast<int>(*parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return count;
}

namespace {

/// The global pool is leaked on purpose: joining worker threads during
/// static destruction is undefined territory (objects the workers could
/// still observe may already be destroyed).
ThreadPool* g_pool = nullptr;
std::mutex g_pool_mu;

}  // namespace

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) g_pool = new ThreadPool(EffectiveThreadCount());
  return *g_pool;
}

void SetGlobalThreads(int n) {
  FM_CHECK(n >= 1) << "SetGlobalThreads(" << n << ")";
  std::lock_guard<std::mutex> lock(g_pool_mu);
  delete g_pool;  // joins the previous pool's workers
  g_pool = new ThreadPool(n);
}

}  // namespace fairmove
