#include "obs/metrics.h"

#include <atomic>
#include <cmath>
#include <cstdio>

#include "util/json_writer.h"
#include "util/table_printer.h"

namespace qsp {
namespace obs {

namespace {
// Atomic so pool workers may read the switch while a test harness flips
// it; relaxed is enough — the flag carries no data dependencies.
std::atomic<bool> g_enabled{false};
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

/// Bucket index for a value: 0 for v <= 1, else 1 + floor(log2(v))
/// clamped to the last bucket, so bucket i covers (2^(i-1), 2^i].
int BucketIndex(double value) {
  if (!(value > 1.0)) return 0;  // Also catches NaN and negatives.
  const int exponent = std::ilogb(value);
  // ilogb(2^k) == k and 2^k belongs to bucket k (interval is
  // right-closed), so only strictly-greater values move up a bucket.
  const double lower = std::ldexp(1.0, exponent);
  int index = exponent + (value > lower ? 1 : 0);
  if (index < 1) index = 1;
  if (index >= Histogram::kNumBuckets) index = Histogram::kNumBuckets - 1;
  return index;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

size_t Counter::ThisThreadShard() {
  static std::atomic<size_t> next_thread{0};
  thread_local const size_t shard =
      next_thread.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

void Histogram::Record(double value) {
  if (std::isnan(value)) return;
  std::lock_guard<std::mutex> lock(mu_);
  buckets_[static_cast<size_t>(BucketIndex(value))] += 1;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
}

double Histogram::Percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (static_cast<double>(seen) >= target) {
      // Upper edge of bucket i, clamped to the exact envelope.
      const double upper = i == 0 ? 1.0 : std::ldexp(1.0, i);
      if (upper < min_) return min_;
      if (upper > max_) return max_;
      return upper;
    }
  }
  return max_;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

Counter& MetricRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_.try_emplace(std::string(name)).first->second;
}

uint64_t MetricRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

std::vector<std::pair<std::string, uint64_t>> MetricRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> values;
  values.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    values.emplace_back(name, counter.value());
  }
  return values;
}

std::vector<std::pair<std::string, double>> MetricRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> values;
  values.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    values.emplace_back(name, gauge.value());
  }
  return values;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricRegistry::Histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> values;
  values.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    values.emplace_back(name, &histogram);
  }
  return values;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter.Reset();
  for (auto& [name, gauge] : gauges_) gauge.Reset();
  for (auto& [name, histogram] : histograms_) histogram.Reset();
}

std::string MetricRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  TablePrinter table({"metric", "kind", "count", "value/mean", "p50", "p99",
                      "max"});
  for (const auto& [name, counter] : counters_) {
    table.AddRow({name, "counter", std::to_string(counter.value()), "", "",
                  "", ""});
  }
  for (const auto& [name, gauge] : gauges_) {
    table.AddRow({name, "gauge", "", FormatDouble(gauge.value()), "", "",
                  ""});
  }
  for (const auto& [name, histogram] : histograms_) {
    table.AddRow({name, "histogram", std::to_string(histogram.count()),
                  FormatDouble(histogram.mean()),
                  FormatDouble(histogram.Percentile(50.0)),
                  FormatDouble(histogram.Percentile(99.0)),
                  FormatDouble(histogram.max())});
  }
  return table.ToText();
}

std::string MetricRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).UInt(counter.value());
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name).Number(gauge.value());
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json.Key(name).BeginObject();
    json.Key("count").UInt(histogram.count());
    json.Key("sum").Number(histogram.sum());
    json.Key("mean").Number(histogram.mean());
    json.Key("min").Number(histogram.min());
    json.Key("max").Number(histogram.max());
    json.Key("p50").Number(histogram.Percentile(50.0));
    json.Key("p90").Number(histogram.Percentile(90.0));
    json.Key("p99").Number(histogram.Percentile(99.0));
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace qsp
