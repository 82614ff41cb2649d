#ifndef QSP_OBS_PHASE_TRACER_H_
#define QSP_OBS_PHASE_TRACER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

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
/// Completed top-level spans accumulate until Clear(). Not thread-safe:
/// only the orchestrating thread may open spans, so code running inside a
/// qsp::exec parallel region must not create spans (the parallel
/// broadcast pass records one enclosing span instead of one per channel).
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

  /// Opens a span as a child of the innermost open span (or a new root).
  /// No-op when telemetry is disabled.
  void Begin(std::string_view name);

  /// Closes the innermost open span; no-op when none is open.
  void End();

  /// Number of currently open spans.
  size_t depth() const { return open_.size(); }

  /// Completed top-level spans, oldest first. Spans still open do not
  /// appear until their End().
  const std::vector<Span>& spans() const { return roots_; }

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

  std::vector<OpenSpan> open_;
  std::vector<Span> roots_;
};

/// RAII span on the default tracer. Captures the enabled state at
/// construction so an End() is only issued for spans actually opened.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : active_(Enabled()) {
    if (active_) PhaseTracer::Default().Begin(name);
  }

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
