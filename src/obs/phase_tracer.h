#ifndef QSP_OBS_PHASE_TRACER_H_
#define QSP_OBS_PHASE_TRACER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace qsp {
namespace obs {

/// Records a tree of named phases with wall times and per-span counter
/// deltas: plan -> merge/<algo> -> ... -> simulate -> broadcast.
/// On Begin() the tracer snapshots the default registry's counters; on
/// End() every counter that advanced during the span is attached to it as
/// a delta, so a span shows not just how long a phase took but how much
/// work (estimator calls, candidates, cache misses) it burned.
///
/// Begin/End must nest; ScopedSpan is the intended way to use it.
/// Completed top-level spans accumulate until Clear().
///
/// Threading rule: the tree belongs to one thread at a time. Begin opens
/// a root on any thread when no span is open, and then only the thread
/// that opened the current root may open or close spans until that root
/// closes; any other thread's Begin records nothing. Code inside a
/// qsp::exec parallel region records nothing either, on the workers and
/// on the calling thread alike, so the tree does not depend on the thread
/// count (a parallel pass such as the broadcast records one enclosing
/// span instead of one per task). The state is guarded by a mutex, so
/// any thread may call any member.
class PhaseTracer {
 public:
  struct Span {
    std::string name;
    /// Wall time of the span, microseconds (obs::CurrentClock()).
    double wall_us = 0.0;
    /// Counters of the default registry that advanced during the span
    /// (name, delta), including work done by child spans.
    std::vector<std::pair<std::string, uint64_t>> counter_deltas;
    std::vector<Span> children;
  };

  /// Opens a span as a child of the innermost open span (or a new root)
  /// and returns true; records nothing and returns false when telemetry
  /// is disabled or the threading rule above refuses the caller.
  bool Begin(std::string_view name);

  /// Closes the innermost open span; no-op when none is open or the
  /// threading rule refuses the caller.
  void End();

  /// Number of currently open spans.
  size_t depth() const;

  /// Completed top-level spans, oldest first. Spans still open do not
  /// appear until their End().
  std::vector<Span> spans() const;

  /// Drops all completed and open spans.
  void Clear();

  /// Indented text tree: "name  wall_us  [counter deltas]".
  std::string ToText() const;

  /// JSON array of span objects {name, wall_us, counters, children}.
  std::string ToJson() const;

  /// The process-global tracer the instrumentation writes to.
  static PhaseTracer& Default();

 private:
  struct OpenSpan {
    Span span;
    /// Start time in microseconds, read from obs::CurrentClock().
    double start_us = 0.0;
    std::vector<std::pair<std::string, uint64_t>> counters_at_start;
  };

  /// True when the calling thread may open or close spans now.
  bool CallerOwnsTree() const QSP_REQUIRES(mu_);

  mutable std::mutex mu_;
  std::vector<OpenSpan> open_ QSP_GUARDED_BY(mu_);
  std::vector<Span> roots_ QSP_GUARDED_BY(mu_);
  /// The thread that opened the current root; meaningful while open_ is
  /// non-empty.
  std::thread::id owner_ QSP_GUARDED_BY(mu_);
};

/// RAII span on the default tracer. Remembers whether its Begin opened a
/// span, so an End() is only issued for spans actually opened.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
      : active_(Enabled() && PhaseTracer::Default().Begin(name)) {}

  ~ScopedSpan() {
    if (active_) PhaseTracer::Default().End();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

}  // namespace obs
}  // namespace qsp

#endif  // QSP_OBS_PHASE_TRACER_H_
