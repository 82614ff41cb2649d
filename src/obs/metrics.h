#ifndef QSP_OBS_METRICS_H_
#define QSP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "util/thread_annotations.h"

namespace qsp {
namespace obs {

/// ------------------------------------------------------------------ switch
///
/// The telemetry layer is off by default and every instrumentation entry
/// point (Count/SetGauge/Observe, ScopedTimer, ScopedSpan) first checks
/// Enabled(), so an instrumented hot path costs one predictable branch
/// when telemetry is off.

/// Whether telemetry is currently recording (process-global).
bool Enabled();
/// Turns recording on/off. ServiceConfig::telemetry and the bench report
/// helpers flip this; tests flip it around the code under measurement.
void SetEnabled(bool enabled);

/// ----------------------------------------------------------------- metrics

/// Monotonically increasing event count (e.g. estimator calls, candidate
/// pairs evaluated). Thread-safe: increments land in one of a small set
/// of cache-line-padded atomic shards picked per thread, so concurrent
/// planner loops (qsp::exec) never contend on one cache line; value()
/// sums the shards. Relaxed ordering — counts are statistics, not
/// synchronization. Non-copyable (the registry hands out references).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta = 1) {
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kShards = 8;  // Power of two.
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  /// Stable per-thread shard index: threads are numbered in creation
  /// order and map round-robin onto the shards.
  static size_t ThisThreadShard();

  std::array<Shard, kShards> shards_{};
};

/// Last-observed value (e.g. estimated plan cost, measured |M| of the most
/// recent round). Thread-safe via an atomic slot (last writer wins).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale histogram for latencies and sizes: bucket 0 holds values
/// <= 1, bucket i holds values in (2^(i-1), 2^i]. Tracks exact count,
/// sum, min, and max alongside the buckets, so means are exact and only
/// percentiles are bucket-resolution approximations (within a factor of
/// two, which is all a latency distribution needs).
///
/// Thread-safe: Record and the accessors serialize on an internal mutex
/// (a Record touches five fields that must stay mutually consistent).
/// Histograms are not recorded from the planner's parallel inner loops —
/// only counters are — so the lock is uncontended in practice.
/// Non-copyable (the registry hands out references).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);

  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  double min() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : min_;
  }
  double max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : max_;
  }
  double mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Upper bound of the bucket containing the p-th percentile
  /// (p in [0, 100]), clamped to the exact [min, max] envelope. 0 when
  /// the histogram is empty.
  double Percentile(double p) const;

  uint64_t bucket(int i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return buckets_[static_cast<size_t>(i)];
  }

  void Reset();

 private:
  mutable std::mutex mu_;
  std::array<uint64_t, kNumBuckets> buckets_ QSP_GUARDED_BY(mu_){};
  uint64_t count_ QSP_GUARDED_BY(mu_) = 0;
  double sum_ QSP_GUARDED_BY(mu_) = 0.0;
  double min_ QSP_GUARDED_BY(mu_) = 0.0;
  double max_ QSP_GUARDED_BY(mu_) = 0.0;
};

/// One exported metric, for snapshot-style consumers.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind;
  /// Counter value / gauge value / histogram count.
  double value = 0.0;
};

/// Named metric store. Metrics are created on first use and live for the
/// registry's lifetime (references returned by counter()/gauge()/
/// histogram() stay valid across concurrent insertions — std::map nodes
/// are stable). Names follow the dotted scheme documented in DESIGN.md
/// §5, e.g. "merge.pair-merging.candidates" or "core.plan.latency_us".
///
/// Thread-safe: lookups/creation and the export walks serialize on an
/// internal mutex; mutation of the returned metrics is synchronized by
/// the metrics themselves. Hot paths that run inside qsp::exec parallel
/// regions resolve their Counter* once and then pay only the counter's
/// sharded atomic add (see MergeContext).
class MetricRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Value of a counter, 0 if it was never touched (does not create it).
  uint64_t CounterValue(std::string_view name) const;
  /// Value of a gauge, 0.0 if it was never touched (does not create it).
  double GaugeValue(std::string_view name) const;

  /// All counters in name order (used by PhaseTracer to diff spans).
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;

  /// All gauges in name order (used by the exporter and sampler).
  std::vector<std::pair<std::string, double>> GaugeValues() const;

  /// All histograms in name order. The pointers stay valid for the
  /// registry's lifetime (std::map nodes are stable) and the histograms
  /// synchronize themselves, so callers may read them lock-free.
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const;

  size_t num_metrics() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Zeroes every metric but keeps registrations (references stay valid).
  void Reset();

  /// Aligned text table (name | kind | count | value | p50 | p99 | max),
  /// rendered with TablePrinter.
  std::string ToText() const;

  /// JSON object {counters: {...}, gauges: {...}, histograms: {...}}.
  std::string ToJson() const;

  /// The process-global registry all convenience entry points write to.
  static MetricRegistry& Default();

 private:
  /// Guards the maps (not the metrics inside them).
  mutable std::mutex mu_;
  // Ordered maps so every export is deterministically sorted by name.
  // The mutex guards the maps only; the metric objects inside the nodes
  // synchronize themselves (sharded atomics / their own mutex).
  std::map<std::string, Counter, std::less<>> counters_ QSP_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ QSP_GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> histograms_
      QSP_GUARDED_BY(mu_);
};

/// --------------------------------------------- convenience entry points
///
/// The forms instrumented code actually uses. All of them are no-ops
/// (one branch) when telemetry is disabled; the name lookup only happens
/// when enabled.

inline void Count(std::string_view name, uint64_t delta = 1) {
  if (!Enabled() || delta == 0) return;
  MetricRegistry::Default().counter(name).Add(delta);
}

inline void SetGauge(std::string_view name, double value) {
  if (!Enabled()) return;
  MetricRegistry::Default().gauge(name).Set(value);
}

inline void Observe(std::string_view name, double value) {
  if (!Enabled()) return;
  MetricRegistry::Default().histogram(name).Record(value);
}

/// Records the wall time (obs::CurrentClock(), microseconds) of a scope
/// into a histogram of the default registry. Captures the enabled state
/// at construction, so toggling mid-scope cannot mismatch start/stop.
/// Under a FakeClock the recorded durations are deterministic.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name) {
    if (!Enabled()) return;
    histogram_ = &MetricRegistry::Default().histogram(name);
    start_us_ = CurrentClock()->NowMicros();
  }

  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(ElapsedMicros());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Microseconds since construction (0 when telemetry was disabled).
  double ElapsedMicros() const {
    if (histogram_ == nullptr) return 0.0;
    return CurrentClock()->NowMicros() - start_us_;
  }

 private:
  Histogram* histogram_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace obs
}  // namespace qsp

#endif  // QSP_OBS_METRICS_H_
