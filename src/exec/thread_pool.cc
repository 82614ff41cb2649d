#include "exec/thread_pool.h"

#include <algorithm>
#include <memory>

#include "util/status.h"

namespace qsp {
namespace exec {

namespace {

/// Worker identity for nested-region detection: set for the lifetime of a
/// worker thread to the pool that owns it.
thread_local const ThreadPool* t_owner_pool = nullptr;

/// ParallelFor calls the calling thread is inside (InParallelRegion).
thread_local int t_region_depth = 0;

/// Marks the calling thread as inside a parallel region for its scope.
class RegionScope {
 public:
  RegionScope() { ++t_region_depth; }
  ~RegionScope() { --t_region_depth; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;
};

}  // namespace

/// Shared state of one ParallelFor call. Workers pull contiguous grains
/// of indices through `next` and report completion through `done`; the
/// submitting thread participates too and then waits for the stragglers.
/// Heap-allocated and shared so a worker that wakes after the region
/// completed still holds valid memory (it finds the cursor exhausted and
/// goes back to sleep); `seq` distinguishes regions so such a worker
/// never re-enters one it already drained.
struct ThreadPool::Region {
  uint64_t seq = 0;
  size_t n = 0;
  size_t grain = 1;
  const std::function<void(size_t)>* body = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  /// Runs grains until the cursor passes n.
  ///
  /// Lifetime note: `body` points into the submitting ParallelFor frame.
  /// That frame only returns once done == n, and done can only reach n
  /// after every index claimed from the cursor has run, so any Drain()
  /// that claims indices does so while the frame is still alive; a Drain()
  /// arriving late claims nothing and never touches `body`.
  void Drain() {
    while (true) {
      const size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const size_t end = std::min(n, begin + grain);
      for (size_t i = begin; i < end; ++i) (*body)(i);
      const size_t finished =
          done.fetch_add(end - begin, std::memory_order_acq_rel) +
          (end - begin);
      if (finished == n) {
        std::lock_guard<std::mutex> lock(done_mu);
        done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) {
  QSP_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  t_owner_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t last_seq = 0;
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (region_ != nullptr && region_->seq != last_seq);
    });
    if (shutdown_) return;
    const std::shared_ptr<Region> region = region_;
    last_seq = region->seq;
    lock.unlock();
    region->Drain();
    lock.lock();
  }
}

bool ThreadPool::InWorker() const { return t_owner_pool == this; }

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const RegionScope in_region;
  // From inside one of our own workers (a nested parallel region), run
  // serially: the outer region already owns the pool's capacity, and
  // blocking a worker on its own pool would deadlock.
  if (InWorker() || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto region = std::make_shared<Region>();
  region->n = n;
  // Grains large enough to amortize the cursor, small enough to balance
  // uneven work: ~4 grains per thread (workers + the calling thread).
  const size_t parts = (workers_.size() + 1) * 4;
  region->grain = std::max<size_t>(1, (n + parts - 1) / parts);
  region->body = &body;

  {
    std::lock_guard<std::mutex> lock(mu_);
    region->seq = ++region_seq_;
    region_ = region;
  }
  work_cv_.notify_all();
  region->Drain();  // The calling thread is a worker too.
  {
    std::unique_lock<std::mutex> done_lock(region->done_mu);
    region->done_cv.wait(done_lock, [&] {
      return region->done.load(std::memory_order_acquire) == n;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    region_.reset();
  }
}

/// ------------------------------------------------------- default executor

namespace {

int g_default_threads = 1;
std::unique_ptr<ThreadPool> g_default_pool;

}  // namespace

int DefaultThreads() { return g_default_threads; }

void SetDefaultThreads(int n) {
  const int threads = std::max(1, n);
  if (threads == g_default_threads) return;
  g_default_pool.reset();
  if (threads > 1) g_default_pool = std::make_unique<ThreadPool>(threads);
  g_default_threads = threads;
}

ThreadPool* DefaultPool() { return g_default_pool.get(); }

void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  ThreadPool* pool = DefaultPool();
  if (pool == nullptr) {
    const RegionScope in_region;
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->ParallelFor(n, body);
}

bool InParallelRegion() {
  return t_owner_pool != nullptr || t_region_depth > 0;
}

}  // namespace exec
}  // namespace qsp
