// Randomized cross-module soak: full scenarios with randomly drawn
// configurations (object space, workload shape, cost constants, merger,
// procedure, estimator, index, channels, extraction mode). Every single
// run must plan within the initial-cost budget and deliver exact answers
// to every client — the library's end-to-end contract under arbitrary
// (valid) configuration.

#include <gtest/gtest.h>

#include "sim/scenario.h"
#include "util/rng.h"

namespace qsp {
namespace {

class RandomizedSoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedSoak, ArbitraryConfigurationDeliversExactAnswers) {
  Rng rng(GetParam());

  ScenarioConfig config;
  config.seed = GetParam() ^ 0xD00D;
  config.objects.domain = Rect(0, 0, rng.UniformDouble(50, 2000),
                               rng.UniformDouble(50, 2000));
  config.objects.num_objects = static_cast<size_t>(rng.UniformInt(50, 3000));
  config.objects.clustered_fraction = rng.UniformDouble(0, 1);
  config.objects.num_clusters = static_cast<int>(rng.UniformInt(1, 8));
  config.objects.payload_fields = static_cast<int>(rng.UniformInt(0, 2));
  config.objects.payload_bytes = static_cast<int>(rng.UniformInt(1, 64));

  config.workload.num_queries = static_cast<size_t>(rng.UniformInt(1, 25));
  config.workload.cf = rng.UniformDouble(0, 1);
  config.workload.sf = rng.UniformDouble(0.1, 1);
  config.workload.df = rng.UniformDouble(0.005, 0.3);
  config.workload.min_extent = rng.UniformDouble(0.005, 0.05);
  config.workload.max_extent =
      config.workload.min_extent + rng.UniformDouble(0, 0.3);

  config.num_clients = static_cast<size_t>(rng.UniformInt(1, 8));
  config.assignment = static_cast<ClientAssignment>(rng.UniformInt(0, 2));

  config.service.cost_model.k_m = rng.UniformDouble(0, 100);
  config.service.cost_model.k_t = rng.UniformDouble(0, 10);
  config.service.cost_model.k_u = rng.UniformDouble(0, 10);
  config.service.cost_model.k_d = rng.UniformDouble(0, 10);
  config.service.cost_model.k_check = rng.UniformDouble(0, 3);
  // Exact partition search only on small instances.
  config.service.merger =
      config.workload.num_queries <= 10 && rng.Bernoulli(0.25)
          ? MergerKind::kPartitionExact
          : static_cast<MergerKind>(rng.UniformInt(0, 2));
  config.service.procedure =
      static_cast<ProcedureKind>(rng.UniformInt(0, 2));
  config.service.estimator =
      static_cast<EstimatorKind>(rng.UniformInt(0, 2));
  // This draw picks nothing (the service has one index); it stays so
  // that each seed keeps producing the same configuration.
  rng.UniformInt(0, 1);
  config.service.extraction =
      static_cast<ExtractionMode>(rng.UniformInt(0, 1));
  config.service.num_channels = static_cast<int>(rng.UniformInt(1, 4));
  config.service.client_cache = rng.Bernoulli(0.3);
  config.service.seed = GetParam();
  config.rounds = static_cast<int>(rng.UniformInt(1, 3));

  auto result = RunScenario(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->all_correct)
      << "merger=" << static_cast<int>(config.service.merger)
      << " procedure=" << static_cast<int>(config.service.procedure)
      << " channels=" << config.service.num_channels;
  EXPECT_EQ(result->rounds.size(), static_cast<size_t>(config.rounds));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSoak,
                         ::testing::Range<uint64_t>(42000, 42040));

}  // namespace
}  // namespace qsp
