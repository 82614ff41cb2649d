#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/subscription_service.h"
#include "exec/thread_pool.h"
#include "merge/sharded_planner.h"
#include "obs/metrics.h"
#include "obs/phase_tracer.h"
#include "relation/generator.h"
#include "util/json_parser.h"
#include "util/rng.h"

namespace qsp {
namespace {

Table MakeWorldTable(uint64_t seed, size_t objects = 1000) {
  Rng rng(seed);
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 100, 100);
  config.num_objects = objects;
  config.payload_fields = 1;
  config.payload_bytes = 16;
  return GenerateTable(config, &rng);
}

ServiceConfig BasicConfig() {
  ServiceConfig config;
  config.cost_model = {2.0, 1.0, 1.0, 0.0};
  config.estimator = EstimatorKind::kExact;
  return config;
}

TEST(SubscriptionServiceTest, PlanRequiresSubscriptions) {
  SubscriptionService service(MakeWorldTable(1), Rect(0, 0, 100, 100),
                              BasicConfig());
  EXPECT_FALSE(service.Plan().ok());
}

TEST(SubscriptionServiceTest, RoundRequiresPlan) {
  SubscriptionService service(MakeWorldTable(1), Rect(0, 0, 100, 100),
                              BasicConfig());
  const ClientId c = service.AddClient();
  service.Subscribe(c, Rect(0, 0, 10, 10));
  EXPECT_FALSE(service.RunRound().ok());
}

TEST(SubscriptionServiceTest, SingleChannelPlanAndRound) {
  SubscriptionService service(MakeWorldTable(2), Rect(0, 0, 100, 100),
                              BasicConfig());
  const ClientId a = service.AddClient();
  const ClientId b = service.AddClient();
  service.Subscribe(a, Rect(10, 10, 30, 30));
  service.Subscribe(a, Rect(12, 12, 32, 32));
  service.Subscribe(b, Rect(70, 70, 90, 90));

  auto report = service.Plan();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->initial_cost, 0.0);
  EXPECT_LE(report->estimated_cost, report->initial_cost + 1e-9);
  ASSERT_EQ(report->plan.allocation.size(), 1u);
  EXPECT_EQ(report->plan.allocation[0].size(), 2u);

  auto stats = service.RunRound();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->all_answers_correct);
  EXPECT_EQ(stats->num_messages, report->num_groups);
}

TEST(SubscriptionServiceTest, OverlappingQueriesGetMerged) {
  SubscriptionService service(MakeWorldTable(3), Rect(0, 0, 100, 100),
                              BasicConfig());
  const ClientId a = service.AddClient();
  // Two nearly identical queries: merging is clearly beneficial.
  service.Subscribe(a, Rect(10, 10, 30, 30));
  service.Subscribe(a, Rect(11, 11, 31, 31));
  auto report = service.Plan();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_groups, 1u);
}

TEST(SubscriptionServiceTest, SubscribingInvalidatesPlan) {
  SubscriptionService service(MakeWorldTable(4), Rect(0, 0, 100, 100),
                              BasicConfig());
  const ClientId a = service.AddClient();
  service.Subscribe(a, Rect(0, 0, 10, 10));
  ASSERT_TRUE(service.Plan().ok());
  service.Subscribe(a, Rect(5, 5, 15, 15));
  EXPECT_FALSE(service.RunRound().ok());  // Stale plan rejected.
  ASSERT_TRUE(service.Plan().ok());
  EXPECT_TRUE(service.RunRound().ok());
}

TEST(SubscriptionServiceTest, ShardedPlanServesCorrectRounds) {
  // The ServiceConfig::shards knob end to end: a sharded single-channel
  // plan must carry per-group shard attribution and still deliver every
  // client its exact answer.
  ServiceConfig config = BasicConfig();
  config.shards = 4;
  SubscriptionService service(MakeWorldTable(6), Rect(0, 0, 100, 100),
                              config);
  Rng rng(99);
  const ClientId a = service.AddClient();
  const ClientId b = service.AddClient();
  for (int i = 0; i < 40; ++i) {
    const double x = rng.UniformDouble(0.0, 85.0);
    const double y = rng.UniformDouble(0.0, 85.0);
    service.Subscribe(i % 2 == 0 ? a : b, Rect(x, y, x + 12, y + 12));
  }
  auto report = service.Plan();
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->estimated_cost, report->initial_cost + 1e-9);
  ASSERT_EQ(report->plan.channel_partitions.size(), 1u);
  const Partition& partition = report->plan.channel_partitions[0];
  ASSERT_EQ(service.plan_group_shard().size(), partition.size());
  for (const int32_t shard : service.plan_group_shard()) {
    EXPECT_GE(shard, ShardedMergeOutcome::kSeamGroup);
    EXPECT_LT(shard, 4);
  }
  auto stats = service.RunRound();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->all_answers_correct);

  // shards=1 must behave exactly like a config without the knob.
  ServiceConfig unsharded = BasicConfig();
  unsharded.shards = 1;
  SubscriptionService plain(MakeWorldTable(6), Rect(0, 0, 100, 100),
                            unsharded);
  SubscriptionService knobless(MakeWorldTable(6), Rect(0, 0, 100, 100),
                               BasicConfig());
  Rng rng_plain(99);
  const ClientId pa = plain.AddClient();
  const ClientId pb = plain.AddClient();
  const ClientId ka = knobless.AddClient();
  const ClientId kb = knobless.AddClient();
  for (int i = 0; i < 40; ++i) {
    const double x = rng_plain.UniformDouble(0.0, 85.0);
    const double y = rng_plain.UniformDouble(0.0, 85.0);
    const Rect rect(x, y, x + 12, y + 12);
    plain.Subscribe(i % 2 == 0 ? pa : pb, rect);
    knobless.Subscribe(i % 2 == 0 ? ka : kb, rect);
  }
  auto plain_report = plain.Plan();
  auto knobless_report = knobless.Plan();
  ASSERT_TRUE(plain_report.ok());
  ASSERT_TRUE(knobless_report.ok());
  EXPECT_TRUE(plain.plan_group_shard().empty());
  EXPECT_EQ(plain_report->plan.channel_partitions,
            knobless_report->plan.channel_partitions);
  EXPECT_DOUBLE_EQ(plain_report->estimated_cost,
                   knobless_report->estimated_cost);
}

/// Span names of a tree, one per line, indented by depth.
void AppendSpanNames(const std::vector<obs::PhaseTracer::Span>& spans,
                     int depth, std::string* out) {
  for (const obs::PhaseTracer::Span& span : spans) {
    out->append(static_cast<size_t>(2 * depth), ' ');
    *out += span.name + "\n";
    AppendSpanNames(span.children, depth + 1, out);
  }
}

TEST(SubscriptionServiceTest, ShardedPlanTraceIsTheSameAtEveryThreadCount) {
  // Telemetry on, 4 shards: every shard's Merger::Merge opens its
  // merge/<name> span inside exec::ParallelMap, on the pool's workers and
  // on the calling thread at once. The tracer records nothing inside a
  // parallel region, so 4 threads trace the tree 1 thread does, and no
  // worker touches the tracer's state (a data race under TSan).
  struct TelemetryOffOnExit {
    ~TelemetryOffOnExit() {
      exec::SetDefaultThreads(1);
      obs::SetEnabled(false);
      obs::MetricRegistry::Default().Reset();
      obs::PhaseTracer::Default().Clear();
    }
  } telemetry_off_on_exit;
  std::string trees[2];
  const int threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    obs::PhaseTracer::Default().Clear();
    ServiceConfig config = BasicConfig();
    config.telemetry = true;
    config.threads = threads[t];
    config.shards = 4;
    SubscriptionService service(MakeWorldTable(6), Rect(0, 0, 100, 100),
                                config);
    Rng rng(99);
    const ClientId a = service.AddClient();
    const ClientId b = service.AddClient();
    for (int i = 0; i < 40; ++i) {
      const double x = rng.UniformDouble(0.0, 85.0);
      const double y = rng.UniformDouble(0.0, 85.0);
      service.Subscribe(i % 2 == 0 ? a : b, Rect(x, y, x + 12, y + 12));
    }
    ASSERT_TRUE(service.Plan().ok());
    AppendSpanNames(obs::PhaseTracer::Default().spans(), 0, &trees[t]);
  }
  EXPECT_EQ(trees[0], "plan\n  plan/sharded\n    plan/seam\n");
  EXPECT_EQ(trees[1], trees[0]);
}

TEST(SubscriptionServiceTest, MultiChannelPlanUsesAtMostConfiguredChannels) {
  ServiceConfig config = BasicConfig();
  config.num_channels = 3;
  SubscriptionService service(MakeWorldTable(5), Rect(0, 0, 100, 100),
                              config);
  for (int c = 0; c < 6; ++c) {
    const ClientId id = service.AddClient();
    const double x = 15.0 * c;
    service.Subscribe(id, Rect(x, x, x + 10, x + 10));
  }
  auto report = service.Plan();
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->plan.allocation.size(), 3u);
  auto stats = service.RunRound();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->all_answers_correct);
  EXPECT_LE(stats->channels_used, 3u);
}

TEST(SubscriptionServiceTest, SubscribeWhereParsesGeographicPredicate) {
  SubscriptionService service(MakeWorldTable(8), Rect(0, 0, 100, 100),
                              BasicConfig());
  const ClientId a = service.AddClient();
  auto id = service.SubscribeWhere(
      a, "longitude BETWEEN 10 AND 30 AND latitude BETWEEN 20 AND 40");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(service.queries().rect(id.value()), Rect(10, 20, 30, 40));

  // Disjunctions and payload columns cannot become one range query.
  EXPECT_FALSE(service.SubscribeWhere(a, "longitude < 5 OR latitude < 5")
                   .ok());
  EXPECT_FALSE(service.SubscribeWhere(a, "attr0 = 'tank'").ok());
  EXPECT_FALSE(service.SubscribeWhere(a, "not valid ((").ok());
}

TEST(SubscriptionServiceTest, SamplerThreadRunsWhileTheServicePlansAndRuns) {
  // Telemetry plus both sampling knobs start an obs::PeriodicSampler
  // thread for the service's lifetime. It reads the metric registry
  // while Plan() and RunRound() publish into it, and the destructor
  // joins it.
  const std::string path =
      testing::TempDir() + "/subscription_service_sampler.jsonl";
  std::remove(path.c_str());
  struct TelemetryOffOnExit {
    ~TelemetryOffOnExit() {
      obs::SetEnabled(false);
      obs::MetricRegistry::Default().Reset();
      obs::PhaseTracer::Default().Clear();
    }
  } telemetry_off_on_exit;
  const auto read_sink = [&path] {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };

  ServiceConfig config = BasicConfig();
  config.telemetry = true;
  config.sample_interval_ms = 1;
  config.sample_path = path;
  {
    SubscriptionService service(MakeWorldTable(9), Rect(0, 0, 100, 100),
                                config);
    Rng rng(9);
    for (int c = 0; c < 4; ++c) {
      const ClientId id = service.AddClient();
      for (int q = 0; q < 3; ++q) {
        const double x = rng.UniformDouble(0, 70);
        const double y = rng.UniformDouble(0, 70);
        service.Subscribe(id, Rect(x, y, x + 20, y + 20));
      }
    }
    ASSERT_TRUE(service.Plan().ok());
    // The sampler first fires one interval after the service starts, so
    // keep running rounds until it has appended a row.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (read_sink().find('\n') == std::string::npos &&
           std::chrono::steady_clock::now() < deadline) {
      auto stats = service.RunRound();
      ASSERT_TRUE(stats.ok());
      ASSERT_TRUE(stats->all_answers_correct);
    }
  }

  // The destructor stopped the sampler: every row is complete and parses.
  std::istringstream rows(read_sink());
  std::string row;
  size_t parsed_rows = 0;
  while (std::getline(rows, row)) {
    const Result<JsonValue> parsed = ParseJson(row);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << row;
    ASSERT_NE(nullptr, parsed.value().Find("gauges"));
    ++parsed_rows;
  }
  EXPECT_GE(parsed_rows, 1u);
  std::remove(path.c_str());
}

TEST(SubscriptionServiceTest, FactoriesCoverAllKinds) {
  EXPECT_NE(MakeProcedure(ProcedureKind::kBoundingRect), nullptr);
  EXPECT_NE(MakeProcedure(ProcedureKind::kBoundingPolygon), nullptr);
  EXPECT_NE(MakeProcedure(ProcedureKind::kExactCover), nullptr);
  EXPECT_NE(MakeMerger(MergerKind::kPairMerging, 1), nullptr);
  EXPECT_NE(MakeMerger(MergerKind::kDirectedSearch, 1), nullptr);
  EXPECT_NE(MakeMerger(MergerKind::kClustering, 1), nullptr);
  EXPECT_NE(MakeMerger(MergerKind::kPartitionExact, 1), nullptr);
}

/// Property sweep over the full configuration matrix: every combination
/// plans successfully and delivers exact answers.
class ServiceMatrix
    : public ::testing::TestWithParam<
          std::tuple<MergerKind, ProcedureKind, EstimatorKind, int>> {};

TEST_P(ServiceMatrix, PlansAndDeliversCorrectly) {
  ServiceConfig config = BasicConfig();
  config.merger = std::get<0>(GetParam());
  config.procedure = std::get<1>(GetParam());
  config.estimator = std::get<2>(GetParam());
  config.num_channels = std::get<3>(GetParam());

  SubscriptionService service(MakeWorldTable(7), Rect(0, 0, 100, 100),
                              config);
  Rng rng(99);
  for (int c = 0; c < 4; ++c) {
    const ClientId id = service.AddClient();
    for (int q = 0; q < 2; ++q) {
      const double x = rng.UniformDouble(0, 70);
      const double y = rng.UniformDouble(0, 70);
      service.Subscribe(id, Rect(x, y, x + rng.UniformDouble(5, 25),
                                 y + rng.UniformDouble(5, 25)));
    }
  }
  auto report = service.Plan();
  ASSERT_TRUE(report.ok());
  auto stats = service.RunRound();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->all_answers_correct);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ServiceMatrix,
    ::testing::Combine(
        ::testing::Values(MergerKind::kPairMerging,
                          MergerKind::kDirectedSearch,
                          MergerKind::kClustering,
                          MergerKind::kPartitionExact),
        ::testing::Values(ProcedureKind::kBoundingRect,
                          ProcedureKind::kBoundingPolygon,
                          ProcedureKind::kExactCover),
        ::testing::Values(EstimatorKind::kUniform, EstimatorKind::kHistogram,
                          EstimatorKind::kExact),
        ::testing::Values(1, 2)));

/// Second matrix over the runtime dimensions: extractor implementation
/// x channels x threads, all with the pair merger. With threads > 1 the
/// broadcast delivers one channel per pool task.
class RuntimeMatrix
    : public ::testing::TestWithParam<std::tuple<ExtractionMode, int, int>> {
};

TEST_P(RuntimeMatrix, PlansAndDeliversCorrectly) {
  ServiceConfig config = BasicConfig();
  config.extraction = std::get<0>(GetParam());
  config.num_channels = std::get<1>(GetParam());
  config.threads = std::get<2>(GetParam());
  config.cost_model.k_check = 0.5;
  // The service applies its thread count process-wide; restore the
  // serial default however the test ends.
  struct SerialOnExit {
    ~SerialOnExit() { exec::SetDefaultThreads(1); }
  } serial_on_exit;

  SubscriptionService service(MakeWorldTable(21), Rect(0, 0, 100, 100),
                              config);
  Rng rng(55);
  for (int c = 0; c < 5; ++c) {
    const ClientId id = service.AddClient();
    for (int q = 0; q < 2; ++q) {
      const double x = rng.UniformDouble(0, 70);
      const double y = rng.UniformDouble(0, 70);
      service.Subscribe(id, Rect(x, y, x + rng.UniformDouble(5, 25),
                                 y + rng.UniformDouble(5, 25)));
    }
  }
  ASSERT_TRUE(service.Plan().ok());
  auto stats = service.RunRound();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->all_answers_correct);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RuntimeMatrix,
    ::testing::Combine(
        ::testing::Values(ExtractionMode::kSelfExtract,
                          ExtractionMode::kServerTags),
        ::testing::Values(1, 2, 3), ::testing::Values(1, 4)));

}  // namespace
}  // namespace qsp
