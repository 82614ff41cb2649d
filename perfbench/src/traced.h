#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

// The traced run: each workload rebuilt from the layers' public classes,
// with every call into a layer timed from the benchmark's own code. The
// program carries no instrumentation for this; decorators over
// SizeEstimator, MergeProcedure and SpatialIndex time the calls the
// layers make into each other. Single-threaded by design (the workloads
// run with threads = 1).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/merge_procedure.h"
#include "relation/spatial_index.h"
#include "stats/size_estimator.h"
#include "workloads.h"

namespace perfbench {

/// Layers whose calls the decorators time.
enum class CallLayer { kEstimator = 0, kProcedure = 1, kIndex = 2 };

/// In-memory span recorder. Spans nest; decorator calls are not spans of
/// their own (there are millions) but are summed into the innermost open
/// span as (calls, time, rows) per layer.
class Tracer {
 public:
  struct CallTotals {
    uint64_t calls = 0;
    double us = 0.0;
    uint64_t rows = 0;
  };
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    /// Extra work the traced run does to observe a layer (it has no
    /// counterpart in the untraced run); excluded from layer totals.
    bool probe = false;
    CallTotals calls[3];
    double duration_us() const { return end_us - start_us; }
  };

  int Begin(const std::string& name, bool probe = false);
  void End(int span);
  /// Attributes one decorator call to the innermost open span.
  void AddCall(CallLayer layer, double us, uint64_t rows);

  const std::vector<Span>& spans() const { return spans_; }
  /// Calls of `layer` in the subtree of `span`.
  CallTotals Subtree(int span, CallLayer layer) const;
  /// Calls of `layer` in every span that is not inside a probe.
  CallTotals OutsideProbes(CallLayer layer) const;
  /// Total duration of spans named `name`.
  double DurationUs(const std::string& name) const;
  /// Spans as a JSON array (name, start, end, parent, probe, calls),
  /// each tagged with `workload`.
  std::string ToJson(const std::string& workload, int rep) const;

 private:
  bool InsideProbe(int span) const;
  std::vector<Span> spans_;
  std::vector<int> open_;
  double origin_s_ = -1.0;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, bool probe = false)
      : tracer_(tracer), id_(tracer->Begin(name, probe)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Forwards every SizeEstimator member, Floor() and EstimateRegionSize()
/// included: dropping Floor() would silently disable distance pruning
/// and time a different planner.
class TimedEstimator : public qsp::SizeEstimator {
 public:
  TimedEstimator(const qsp::SizeEstimator* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  DensityFloor Floor() const override { return inner_->Floor(); }
  double EstimateSize(const qsp::Rect& rect) const override;
  double EstimateRegionSize(const std::vector<qsp::Rect>& pieces) const override;

 private:
  const qsp::SizeEstimator* inner_;
  Tracer* tracer_;
};

/// Forwards Merge(), traits() and name().
class TimedProcedure : public qsp::MergeProcedure {
 public:
  TimedProcedure(const qsp::MergeProcedure* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  qsp::ProcedureTraits traits() const override { return inner_->traits(); }
  std::vector<qsp::MergedQuery> Merge(const qsp::QuerySet& queries,
                                      const qsp::QueryGroup& group) const override;
  std::string name() const override { return inner_->name(); }

 private:
  const qsp::MergeProcedure* inner_;
  Tracer* tracer_;
};

/// Forwards Query() and Count(); rows counts the rows Query() returned.
class TimedIndex : public qsp::SpatialIndex {
 public:
  TimedIndex(const qsp::SpatialIndex* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  std::vector<qsp::RowId> Query(const qsp::Rect& rect) const override;
  size_t Count(const qsp::Rect& rect) const override;

 private:
  const qsp::SpatialIndex* inner_;
  Tracer* tracer_;
};

/// One traced repetition: the same deterministic outputs as the facade
/// run (digest, checks, failures), plus per-layer metrics. It makes no
/// extra set-ups; they do not change the outputs.
struct TracedRep {
  RepOutcome outcome;
  std::map<std::string, double> layer;
  std::string spans_json;
};

TracedRep RunTracedRep(const WorkloadSpec& spec, const Inputs& inputs,
                       uint64_t seed, int rep);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
