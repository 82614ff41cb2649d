// Tests of the qsp::obs telemetry layer: metric registry, log-scale
// histogram percentiles, scoped timers, phase-tracer nesting, and the JSON
// exporters (including the bench DistanceToOptimal guard that rides on the
// same PR).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/phase_tracer.h"
#include "obs/run_report.h"
#include "util/json_writer.h"
#include "util/table_printer.h"

namespace qsp {
namespace obs {
namespace {

// The convenience entry points (Count/SetGauge/Observe, ScopedTimer,
// ScopedSpan) write to process-global state; every test starts from a
// clean, disabled slate and leaves one behind.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    MetricRegistry::Default().Reset();
    PhaseTracer::Default().Clear();
  }
  void TearDown() override { SetEnabled(false); }
};

TEST_F(ObsTest, DisabledEntryPointsAreNoOps) {
  const size_t before = MetricRegistry::Default().num_metrics();
  Count("noop.counter");
  SetGauge("noop.gauge", 1.0);
  Observe("noop.histogram", 1.0);
  { ScopedTimer timer("noop.timer_us"); }
  EXPECT_EQ(MetricRegistry::Default().num_metrics(), before);
  EXPECT_EQ(MetricRegistry::Default().CounterValue("noop.counter"), 0u);
}

TEST_F(ObsTest, EnabledEntryPointsRecord) {
  SetEnabled(true);
  Count("on.counter");
  Count("on.counter", 4);
  SetGauge("on.gauge", 2.5);
  Observe("on.histogram", 10.0);
  auto& registry = MetricRegistry::Default();
  EXPECT_EQ(registry.CounterValue("on.counter"), 5u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("on.gauge"), 2.5);
  EXPECT_EQ(registry.histogram("on.histogram").count(), 1u);
}

TEST_F(ObsTest, RegistryReferencesStayValidAcrossCreation) {
  MetricRegistry registry;
  Counter& a = registry.counter("a");
  a.Add(7);
  // Creating many more metrics must not invalidate the first reference.
  for (int i = 0; i < 100; ++i) {
    registry.counter("bulk." + std::to_string(i)).Add();
  }
  a.Add(3);
  EXPECT_EQ(registry.CounterValue("a"), 10u);
  EXPECT_EQ(registry.num_metrics(), 101u);
}

TEST_F(ObsTest, RegistryResetZeroesButKeepsRegistrations) {
  MetricRegistry registry;
  Counter& c = registry.counter("c");
  c.Add(5);
  registry.gauge("g").Set(1.0);
  registry.histogram("h").Record(4.0);
  registry.Reset();
  EXPECT_EQ(registry.num_metrics(), 3u);
  EXPECT_EQ(registry.CounterValue("c"), 0u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("g"), 0.0);
  EXPECT_EQ(registry.histogram("h").count(), 0u);
  c.Add();  // The old reference still points at the live metric.
  EXPECT_EQ(registry.CounterValue("c"), 1u);
}

TEST_F(ObsTest, HistogramTracksExactMoments) {
  Histogram h;
  for (double v : {3.0, 9.0, 30.0, 90.0}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 132.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 90.0);
  EXPECT_DOUBLE_EQ(h.mean(), 33.0);
  EXPECT_TRUE(std::isnan(1.0) == false);  // sanity for the NaN case below
  h.Record(std::nan(""));                 // dropped, not counted
  EXPECT_EQ(h.count(), 4u);
}

TEST_F(ObsTest, HistogramPercentilesAreFactorOfTwoBounds) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(100.0);  // bucket (64, 128]
  // Every percentile of a constant distribution must land on the bucket
  // upper edge clamped into [min, max] — i.e. exactly 100.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 100.0);
  // Mixed distribution: p50 bounded by the true value's bucket.
  Histogram m;
  for (int i = 0; i < 50; ++i) m.Record(10.0);
  for (int i = 0; i < 50; ++i) m.Record(1000.0);
  const double p25 = m.Percentile(25);
  EXPECT_GE(p25, 10.0);
  EXPECT_LE(p25, 16.0);  // upper edge of (8, 16]
  EXPECT_DOUBLE_EQ(m.Percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(Histogram().Percentile(50), 0.0);
}

TEST_F(ObsTest, HistogramTinyValuesLandInBucketZero) {
  Histogram h;
  h.Record(0.0);
  h.Record(0.5);
  h.Record(1.0);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 1.0);  // clamped to exact max
}

TEST_F(ObsTest, ScopedTimerRecordsOneNonNegativeSample) {
  SetEnabled(true);
  { ScopedTimer timer("t.latency_us"); }
  const Histogram& h = MetricRegistry::Default().histogram("t.latency_us");
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
}

TEST_F(ObsTest, TracerNestsSpansAndCapturesCounterDeltas) {
  SetEnabled(true);
  PhaseTracer& tracer = PhaseTracer::Default();
  tracer.Begin("outer");
  Count("work.outer", 2);
  tracer.Begin("inner");
  Count("work.inner", 5);
  tracer.End();
  tracer.End();
  const std::vector<PhaseTracer::Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  const PhaseTracer::Span& outer = spans[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0].name, "inner");
  // The inner span saw only the inner counter; the outer span saw both.
  ASSERT_EQ(outer.children[0].counter_deltas.size(), 1u);
  EXPECT_EQ(outer.children[0].counter_deltas[0].first, "work.inner");
  EXPECT_EQ(outer.children[0].counter_deltas[0].second, 5u);
  ASSERT_EQ(outer.counter_deltas.size(), 2u);
  EXPECT_EQ(outer.counter_deltas[0].first, "work.inner");
  EXPECT_EQ(outer.counter_deltas[1].first, "work.outer");
  EXPECT_EQ(outer.counter_deltas[1].second, 2u);
  EXPECT_GE(outer.wall_us, outer.children[0].wall_us);
}

TEST_F(ObsTest, TracerEndWithoutBeginIsANoOp) {
  SetEnabled(true);
  PhaseTracer& tracer = PhaseTracer::Default();
  tracer.End();
  EXPECT_EQ(tracer.depth(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST_F(ObsTest, TracerDisabledRecordsNothing) {
  PhaseTracer& tracer = PhaseTracer::Default();
  tracer.Begin("ignored");
  { ScopedSpan span("also-ignored"); }
  tracer.End();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST_F(ObsTest, TracerRecordsOnlyOnTheRootThreadOutsideParallelRegions) {
  SetEnabled(true);
  PhaseTracer& tracer = PhaseTracer::Default();
  ASSERT_TRUE(tracer.Begin("root"));
  // Another thread may not open a span while this thread owns the root.
  bool other_opened = true;
  std::thread other([&] {
    other_opened = tracer.Begin("other");
    tracer.End();  // Refused too: it must not close "root".
  });
  other.join();
  EXPECT_FALSE(other_opened);
  EXPECT_EQ(tracer.depth(), 1u);
  // A parallel region records nothing, on the serial path as well, so the
  // tree does not depend on the thread count.
  exec::ParallelFor(3, [&](size_t) {
    EXPECT_TRUE(exec::InParallelRegion());
    ScopedSpan task("task");
  });
  EXPECT_FALSE(exec::InParallelRegion());
  { ScopedSpan child("child"); }
  tracer.End();
  const std::vector<PhaseTracer::Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].children.size(), 1u);
  EXPECT_EQ(spans[0].children[0].name, "child");
  // With no span open, any thread may open the next root.
  std::thread next([&] {
    EXPECT_TRUE(tracer.Begin("next"));
    tracer.End();
  });
  next.join();
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST_F(ObsTest, JsonWriterBuildsValidNestedDocument) {
  JsonWriter w;
  w.BeginObject()
      .Key("s").String("a\"b\\c\n")
      .Key("n").Number(1.5)
      .Key("bad").Number(std::nan(""))
      .Key("arr").BeginArray().Int(-2).UInt(3).Bool(true).Null().EndArray()
      .Key("nested").BeginObject().Key("k").String("v").EndObject()
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":1.5,\"bad\":null,"
            "\"arr\":[-2,3,true,null],\"nested\":{\"k\":\"v\"}}");
}

TEST_F(ObsTest, TablePrinterJsonRoundTripsNumbersAndStrings) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "3.5"});
  table.AddRow({"beta", "not-a-number"});
  EXPECT_EQ(table.ToJson(),
            "[{\"name\":\"alpha\",\"value\":3.5},"
            "{\"name\":\"beta\",\"value\":\"not-a-number\"}]");
}

TEST_F(ObsTest, RegistryJsonExportsAllKinds) {
  MetricRegistry registry;
  registry.counter("c").Add(2);
  registry.gauge("g").Set(0.5);
  registry.histogram("h").Record(7.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"c\":2}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g\":0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos) << json;
}

TEST_F(ObsTest, RunReportWritesOrderedJsonFile) {
  SetEnabled(true);
  Count("report.counter", 3);
  TablePrinter table({"q"});
  table.AddRow({"1"});
  RunReport report("unit");
  report.AddScalar("pi", 3.0);
  report.AddText("note", "hello");
  report.AddBool("ok", true);
  report.AddTable("rows", table);
  report.AddMetrics(MetricRegistry::Default());
  const std::string json = report.ToJson();
  EXPECT_EQ(json.find("\"name\":\"unit\""), 1u) << json;
  EXPECT_LT(json.find("\"pi\":3"), json.find("\"note\":\"hello\"")) << json;
  EXPECT_NE(json.find("\"rows\":[{\"q\":1}]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"report.counter\":3"), std::string::npos) << json;

  const std::string path = ::testing::TempDir() + "/obs_run_report.json";
  ASSERT_TRUE(report.WriteFile(path).ok());
  std::ifstream in(path);
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), json + "\n");
}

TEST_F(ObsTest, RunReportWriteFileFailsOnBadPath) {
  RunReport report("unit");
  EXPECT_FALSE(report.WriteFile("/nonexistent-dir-qsp/report.json").ok());
}

TEST_F(ObsTest, DistanceToOptimalClampsAndFlags) {
  // Normal case.
  EXPECT_DOUBLE_EQ(bench::DistanceToOptimal(110.0, 100.0, 200.0), 0.1);
  // No merging headroom.
  EXPECT_DOUBLE_EQ(bench::DistanceToOptimal(100.0, 100.0, 100.0), 0.0);
  // Roundoff below the optimum clamps to zero...
  EXPECT_DOUBLE_EQ(bench::DistanceToOptimal(100.0 - 1e-10, 100.0, 200.0), 0.0);
  // ...but a heuristic genuinely beating the "optimum" is a sentinel NaN.
  EXPECT_TRUE(std::isnan(bench::DistanceToOptimal(90.0, 100.0, 200.0)));
}

TEST_F(ObsTest, PercentileOfEmptyHistogramIsZero) {
  Histogram h;
  for (double p : {-5.0, 0.0, 50.0, 100.0, 150.0}) {
    EXPECT_DOUBLE_EQ(0.0, h.Percentile(p)) << "p=" << p;
  }
}

TEST_F(ObsTest, PercentileOfSingleSampleIsThatSample) {
  Histogram h;
  h.Record(7.0);
  for (double p : {-5.0, 0.0, 1.0, 50.0, 99.0, 100.0, 150.0}) {
    EXPECT_DOUBLE_EQ(7.0, h.Percentile(p)) << "p=" << p;
  }
}

TEST_F(ObsTest, PercentileOutOfRangePinsToEnvelope) {
  Histogram h;
  h.Record(2.0);
  h.Record(100.0);
  EXPECT_DOUBLE_EQ(2.0, h.Percentile(0.0));
  EXPECT_DOUBLE_EQ(2.0, h.Percentile(-10.0));
  EXPECT_DOUBLE_EQ(100.0, h.Percentile(100.0));
  EXPECT_DOUBLE_EQ(100.0, h.Percentile(200.0));
}

TEST_F(ObsTest, PercentileBucketZeroClampsToExactEnvelope) {
  // Sub-1.0 values all land in bucket 0 (upper edge 1.0); the reported
  // percentile must still respect the exact [min, max] envelope.
  Histogram h;
  h.Record(0.25);
  h.Record(0.5);
  EXPECT_DOUBLE_EQ(0.5, h.Percentile(50.0));
  EXPECT_DOUBLE_EQ(0.5, h.Percentile(90.0));
  EXPECT_DOUBLE_EQ(0.25, h.Percentile(0.0));
}

TEST_F(ObsTest, PercentileFactorOfTwoOracleOnDeterministicStream) {
  // 1000 pseudo-random samples in [0, 1000): for every p the log-scale
  // histogram's answer must bracket the exact order statistic within the
  // structural factor-of-two bucket error, clamped to [min, max].
  Histogram h;
  std::vector<double> values;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double v = static_cast<double>((x >> 33) % 100000) / 100.0;
    values.push_back(v);
    h.Record(v);
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    const double exact = sorted[rank - 1];
    const double approx = h.Percentile(p);
    EXPECT_GE(approx, exact - 1e-12) << "p=" << p;
    EXPECT_LE(approx, std::max(2.0 * exact, 1.0) + 1e-12) << "p=" << p;
    EXPECT_GE(approx, sorted.front());
    EXPECT_LE(approx, sorted.back());
  }
}

TEST_F(ObsTest, FakeClockMakesScopedTimerDeterministic) {
  // Two timed runs under fresh FakeClocks must record byte-identical
  // latency histograms — the property the fig15 golden report rides on.
  SetEnabled(true);
  double sums[2];
  uint64_t counts[2];
  for (int run = 0; run < 2; ++run) {
    MetricRegistry::Default().Reset();
    FakeClock clock(/*tick_us=*/25.0);
    SetClock(&clock);
    {
      ScopedTimer outer("det.plan.latency_us");
      ScopedTimer inner("det.merge.latency_us");
    }
    SetClock(nullptr);
    const Histogram& h =
        MetricRegistry::Default().histogram("det.plan.latency_us");
    sums[run] = h.sum();
    counts[run] = h.count();
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_DOUBLE_EQ(sums[0], sums[1]);
  EXPECT_GT(sums[0], 0.0);
}

TEST_F(ObsTest, FakeClockMakesTracerSpansDeterministic) {
  SetEnabled(true);
  double walls[2];
  for (int run = 0; run < 2; ++run) {
    PhaseTracer::Default().Clear();
    FakeClock clock(/*tick_us=*/10.0);
    SetClock(&clock);
    PhaseTracer& tracer = PhaseTracer::Default();
    tracer.Begin("plan");
    tracer.Begin("merge");
    tracer.End();
    tracer.End();
    SetClock(nullptr);
    ASSERT_EQ(1u, tracer.spans().size());
    walls[run] = tracer.spans()[0].wall_us;
  }
  EXPECT_DOUBLE_EQ(walls[0], walls[1]);
  EXPECT_GT(walls[0], 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace qsp
