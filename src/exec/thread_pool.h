#ifndef QSP_EXEC_THREAD_POOL_H_
#define QSP_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace qsp {
namespace exec {

/// Fixed-size worker pool backing the planner's embarrassingly-parallel
/// loops (profit-table construction, clustering bounds, search restarts,
/// per-channel broadcast). The pool itself only runs opaque tasks; the
/// determinism contract lives in ParallelFor/ParallelMap below, which
/// address all work by index and leave every reduction to the caller, so
/// results never depend on thread scheduling.
///
/// Workers are started once and parked on a condition variable between
/// parallel regions. Tasks must not throw (the library reports errors via
/// Status, never exceptions).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. Must be >= 1; note that a pool of
  /// size 1 still runs tasks on its single worker thread — callers that
  /// want the serial fast path should not construct a pool at all (see
  /// SetDefaultThreads).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs body(i) for every i in [0, n) across the workers plus the
  /// calling thread, returning when all n indices completed. Indices are
  /// handed out in contiguous grains via an atomic cursor; which thread
  /// runs which grain is unspecified, so `body` must only write to
  /// locations addressed by its index (or otherwise synchronized).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// True when the calling thread is one of this pool's workers. Used to
  /// run nested parallel regions serially instead of deadlocking on the
  /// pool's own capacity.
  bool InWorker() const;

 private:
  struct Region;  // One ParallelFor's shared state.

  // Suppressed from the thread-safety analysis: the worker loop hands
  // mu_ back and forth through a condition-variable wait predicate and
  // an explicit unlock/relock around Drain(), a handoff the analysis
  // cannot follow (DESIGN.md §9). The lock discipline is covered by the
  // TSan CI job instead.
  void WorkerLoop() QSP_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  // Non-null while a region runs. shared_ptr so a worker waking after
  // completion still dereferences valid memory.
  std::shared_ptr<Region> region_ QSP_GUARDED_BY(mu_);
  uint64_t region_seq_ QSP_GUARDED_BY(mu_) = 0;
  bool shutdown_ QSP_GUARDED_BY(mu_) = false;
};

/// ------------------------------------------------------- default executor
///
/// The process-wide pool the planner's loops use, configured by
/// ServiceConfig::threads (see SubscriptionService). Thread count 1 — the
/// default — means "no pool": every ParallelFor below degenerates to the
/// plain serial loop, preserving the pre-exec behavior byte for byte
/// (identical evaluation order, identical memo-cache fill order).

/// Configured parallelism (>= 1). 1 until SetDefaultThreads is called.
int DefaultThreads();

/// Sets the process-wide parallelism. n <= 1 tears the pool down and
/// restores the serial path; n > 1 (re)builds a pool of n threads. Not
/// safe to call concurrently with running parallel regions — configure
/// before planning, as SubscriptionService does.
void SetDefaultThreads(int n);

/// The default pool, or nullptr when running serially.
ThreadPool* DefaultPool();

/// Runs body(i) for i in [0, n): on the default pool when one is
/// configured, serially (ascending i, on the calling thread) otherwise.
/// Nested calls from inside a pool worker always run serially.
void ParallelFor(size_t n, const std::function<void(size_t)>& body);

/// True while the calling thread runs a parallel region's body: always on
/// a pool worker, and on any other thread from the start of a ParallelFor
/// call (on a pool or on the serial path) until it returns. The phase
/// tracer records no span there (obs/phase_tracer.h), so its tree is the
/// same at every thread count.
bool InParallelRegion();

/// Maps [0, n) through fn into a vector whose element i is fn(i) —
/// deterministic result ordering by construction, regardless of which
/// thread computed which element. T must be default-constructible.
template <typename T, typename Fn>
std::vector<T> ParallelMap(size_t n, Fn&& fn) {
  std::vector<T> results(n);
  ParallelFor(n, [&](size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace exec
}  // namespace qsp

#endif  // QSP_EXEC_THREAD_POOL_H_
