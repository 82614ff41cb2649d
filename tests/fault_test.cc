// Lossy-channel fault injection + NACK-based recovery (DESIGN.md §6):
// neutrality of the reliability path with zero rates, exact recovery
// accounting for programmed losses, graceful degradation on max_retx
// exhaustion, determinism from the fault seed, and end-to-end
// correctness under random loss with a sufficient retransmission budget.
//
// The CI fault matrix varies QSP_FAULT_SEED; every test must hold for
// any seed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <vector>

#include "core/subscription_service.h"
#include "net/fault_injector.h"
#include "net/message.h"
#include "net/sim_client.h"
#include "net/simulator.h"
#include "obs/metrics.h"
#include "query/merge_procedure.h"
#include "relation/generator.h"
#include "relation/grid_index.h"
#include "util/rng.h"
#include "workload/client_gen.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

/// Fault seed for the stochastic tests; the CI sanitizer job runs the
/// suite under several values.
uint64_t FaultSeed() {
  const char* env = std::getenv("QSP_FAULT_SEED");
  if (env == nullptr) return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

/// Small end-to-end world: table + index + queries + clients.
struct World {
  Rect domain{0, 0, 100, 100};
  Table table;
  std::unique_ptr<GridIndex> index;
  QuerySet queries;
  ClientSet clients;

  explicit World(uint64_t seed, size_t num_objects = 500,
                 size_t num_queries = 6, size_t num_clients = 3)
      : table(Schema::Geographic(0)) {
    Rng rng(seed);
    TableGeneratorConfig tconfig;
    tconfig.domain = domain;
    tconfig.num_objects = num_objects;
    tconfig.payload_fields = 0;
    table = GenerateTable(tconfig, &rng);
    index = std::make_unique<GridIndex>(table, domain);
    QueryGenConfig qconfig;
    qconfig.domain = domain;
    qconfig.num_queries = num_queries;
    qconfig.max_extent = 0.3;
    queries = QuerySet(GenerateQueries(qconfig, &rng));
    clients = AssignClients(queries, num_clients,
                            ClientAssignment::kLocality, &rng);
  }

  DisseminationPlan UnmergedPlan() const {
    DisseminationPlan plan;
    plan.allocation.push_back(clients.AllClients());
    plan.channel_partitions.push_back(SingletonPartition(queries.size()));
    return plan;
  }

  DisseminationPlan TwoChannelPlan() const {
    DisseminationPlan plan;
    const auto all = clients.AllClients();
    const size_t half = all.size() / 2;
    plan.allocation.emplace_back(all.begin(), all.begin() + half);
    plan.allocation.emplace_back(all.begin() + half, all.end());
    for (const auto& channel_clients : plan.allocation) {
      // Each channel serves the union of its clients' subscriptions,
      // one singleton group per query.
      std::set<QueryId> served;
      for (ClientId c : channel_clients) {
        for (QueryId q : clients.QueriesOf(c)) served.insert(q);
      }
      Partition partition;
      for (QueryId q : served) partition.push_back(QueryGroup{q});
      plan.channel_partitions.push_back(partition);
    }
    return plan;
  }
};

// ------------------------------------------------------------ neutrality

TEST(FaultNeutralityTest, ZeroPolicyReproducesLosslessStatsExactly) {
  World world(41);
  BoundingRectProcedure proc;
  MulticastSimulator lossless(&world.table, world.index.get(), &world.queries,
                              &world.clients);
  MulticastSimulator lossy(&world.table, world.index.get(), &world.queries,
                           &world.clients, /*enable_client_cache=*/false,
                           /*verify_wire=*/false, FaultPolicy{});
  const RoundStats a = lossless.RunRound(world.UnmergedPlan(), proc);
  const RoundStats b = lossy.RunRound(world.UnmergedPlan(), proc);
  EXPECT_EQ(a, b);  // Every field, including the recovery counters.
  EXPECT_TRUE(b.all_answers_correct);
  EXPECT_EQ(b.drops, 0u);
  EXPECT_EQ(b.nacks, 0u);
  EXPECT_EQ(b.retx_messages, 0u);
  EXPECT_EQ(b.incomplete_answers, 0u);
}

TEST(FaultNeutralityTest, ZeroPolicyMatchesOnMergedMultiChannelPlans) {
  World world(42, 800, 8, 4);
  BoundingRectProcedure proc;
  MulticastSimulator lossless(&world.table, world.index.get(), &world.queries,
                              &world.clients);
  MulticastSimulator lossy(&world.table, world.index.get(), &world.queries,
                           &world.clients, false, false, FaultPolicy{});
  const DisseminationPlan plan = world.TwoChannelPlan();
  EXPECT_EQ(lossless.RunRound(plan, proc, ExtractionMode::kServerTags),
            lossy.RunRound(plan, proc, ExtractionMode::kServerTags));
}

// --------------------------------------------------- programmed recovery

TEST(FaultRecoveryTest, SingleLossYieldsExactlyOneNackAndOneRetransmission) {
  World world(43, 500, 6, /*num_clients=*/1);
  // The lost message must carry a nonempty answer for the loss to matter.
  ASSERT_FALSE(world.index->Query(world.queries.rect(0)).empty());
  FaultPolicy policy;
  policy.drop_seq_first_tx = {0};  // Lose message 0's initial broadcast.
  BoundingRectProcedure proc;
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, false, false, policy);
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.nacks, 1u);
  EXPECT_EQ(stats.retx_messages, 1u);
  EXPECT_EQ(stats.retx_rounds, 1u);
  EXPECT_EQ(stats.backoff_units, 1u);
  EXPECT_GT(stats.retx_bytes, 0u);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_EQ(stats.incomplete_answers, 0u);
  for (const SimClient& client : sim.sim_clients()) {
    for (QueryId q : client.subscriptions()) {
      EXPECT_EQ(client.StatusFor(q), AnswerStatus::kComplete);
    }
  }
}

TEST(FaultRecoveryTest, MaxRetxExhaustionDegradesToPartialAnswers) {
  World world(43, 500, 6, /*num_clients=*/1);
  ASSERT_FALSE(world.index->Query(world.queries.rect(0)).empty());
  FaultPolicy policy;
  policy.drop_seq_every_tx = {0};  // Message 0 never gets through.
  policy.max_retx = 2;
  BoundingRectProcedure proc;
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, false, false, policy);
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  // One NACK and one (dropped) retransmission per recovery pass.
  EXPECT_EQ(stats.nacks, 2u);
  EXPECT_EQ(stats.retx_messages, 2u);
  EXPECT_EQ(stats.retx_rounds, 2u);
  EXPECT_EQ(stats.backoff_units, 3u);  // 2^0 + 2^1.
  EXPECT_EQ(stats.drops, 3u);          // Initial + both retransmissions.
  EXPECT_FALSE(stats.all_answers_correct);
  // The single client cannot know what the lost message carried: every
  // subscription degrades — failed for the starved query, partial for
  // the ones that did receive data.
  ASSERT_EQ(sim.sim_clients().size(), 1u);
  const SimClient& client = sim.sim_clients()[0];
  EXPECT_EQ(stats.incomplete_answers, client.subscriptions().size());
  EXPECT_EQ(client.StatusFor(0), AnswerStatus::kFailed);
  size_t partial = 0;
  for (QueryId q : client.subscriptions()) {
    if (client.StatusFor(q) == AnswerStatus::kPartial) ++partial;
  }
  EXPECT_EQ(partial, client.subscriptions().size() - 1);
}

TEST(FaultRecoveryTest, LateJoinersRecoverEverythingViaNacks) {
  World world(44, 500, 6, 3);
  FaultPolicy policy;
  policy.late_join_rate = 1.0;  // Everyone misses the broadcast pass.
  BoundingRectProcedure proc;
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, false, false, policy);
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  EXPECT_EQ(stats.late_join_clients, 3u);
  EXPECT_EQ(stats.retx_messages, stats.num_messages);
  EXPECT_GT(stats.nacks, 0u);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_EQ(stats.incomplete_answers, 0u);
}

TEST(FaultRecoveryTest, DuplicateFloodIsIgnoredBySequenceDedup) {
  World world(45, 500, 6, 3);
  FaultPolicy policy;
  policy.duplicate_rate = 1.0;  // Every delivery arrives twice.
  BoundingRectProcedure proc;
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, false, false, policy);
  MulticastSimulator lossless(&world.table, world.index.get(), &world.queries,
                              &world.clients);
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  const RoundStats base = lossless.RunRound(world.UnmergedPlan(), proc);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_GT(stats.duplicate_deliveries, 0u);
  // Duplicates cost header checks but never re-extraction.
  EXPECT_EQ(stats.headers_checked, 2 * base.headers_checked);
  EXPECT_EQ(stats.rows_examined, base.rows_examined);
  EXPECT_EQ(stats.irrelevant_rows, base.irrelevant_rows);
}

// ----------------------------------------------------------- determinism

TEST(FaultDeterminismTest, SameSeedProducesIdenticalRoundStats) {
  World world(46, 700, 8, 4);
  FaultPolicy policy;
  policy.drop_rate = 0.2;
  policy.duplicate_rate = 0.1;
  policy.reorder_rate = 0.2;
  policy.corrupt_rate = 0.001;
  policy.crash_rate = 0.1;
  policy.late_join_rate = 0.1;
  policy.max_retx = 4;
  policy.seed = FaultSeed();
  BoundingRectProcedure proc;
  MulticastSimulator sim_a(&world.table, world.index.get(), &world.queries,
                           &world.clients, false, false, policy);
  MulticastSimulator sim_b(&world.table, world.index.get(), &world.queries,
                           &world.clients, false, false, policy);
  const DisseminationPlan plan = world.TwoChannelPlan();
  for (int round = 0; round < 3; ++round) {
    const RoundStats a = sim_a.RunRound(plan, proc);
    const RoundStats b = sim_b.RunRound(plan, proc);
    EXPECT_EQ(a, b) << "round " << round;
  }
}

// ------------------------------------------------- random-loss recovery

TEST(FaultRecoveryTest, RandomLossStillCorrectWithGenerousRetxBudget) {
  World world(47, 800, 10, 4);
  FaultPolicy policy;
  policy.drop_rate = 0.2;
  policy.max_retx = 16;
  policy.seed = FaultSeed();
  BoundingRectProcedure proc;
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, false, false, policy);
  const RoundStats stats = sim.RunRound(world.TwoChannelPlan(), proc);
  EXPECT_GT(stats.drops, 0u);
  EXPECT_GT(stats.nacks, 0u);
  EXPECT_GT(stats.retx_messages, 0u);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_EQ(stats.incomplete_answers, 0u);
}

// A 3-channel plan whose middle channel carries no messages (its one
// client subscribes to nothing): a zero policy still reproduces the
// lossless stats, random loss on the two busy channels is recovered, and
// the idle client receives nothing.
TEST(FaultRecoveryTest, ChannelWithoutMessagesStaysQuietUnderLoss) {
  World world(48, 800, 10, 4);
  DisseminationPlan plan = world.TwoChannelPlan();
  const ClientId idle = world.clients.AddClient();
  plan.allocation.insert(plan.allocation.begin() + 1, {idle});
  plan.channel_partitions.insert(plan.channel_partitions.begin() + 1,
                                 Partition{});
  BoundingRectProcedure proc;
  MulticastSimulator lossless(&world.table, world.index.get(), &world.queries,
                              &world.clients);
  MulticastSimulator zero(&world.table, world.index.get(), &world.queries,
                          &world.clients, false, false, FaultPolicy{});
  EXPECT_EQ(lossless.RunRound(plan, proc), zero.RunRound(plan, proc));

  FaultPolicy policy;
  policy.drop_rate = 0.2;
  policy.duplicate_rate = 0.1;
  policy.reorder_rate = 0.1;
  policy.max_retx = 16;
  policy.seed = FaultSeed();
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, false, false, policy);
  const RoundStats stats = sim.RunRound(plan, proc);
  EXPECT_EQ(stats.channels_used, 2u);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_EQ(stats.incomplete_answers, 0u);
  ASSERT_EQ(sim.sim_clients().size(), world.clients.num_clients());
  for (const SimClient& client : sim.sim_clients()) {
    if (client.id() != idle) continue;
    EXPECT_EQ(client.channel(), 1u);
    EXPECT_EQ(client.stats().headers_checked, 0u);
    EXPECT_EQ(client.stats().rows_examined, 0u);
  }
}

TEST(FaultRecoveryTest, CorruptionIsDetectedAndRecovered) {
  World world(48, 600, 6, 3);
  FaultPolicy policy;
  policy.corrupt_rate = 0.002;  // A few bytes per frame on average.
  policy.max_retx = 16;
  policy.seed = FaultSeed();
  BoundingRectProcedure proc;
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, false, false, policy);
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  // Corrupted frames are rejected by the CRC and recovered like drops.
  EXPECT_EQ(stats.corrupted_frames > 0, stats.retx_messages > 0);
  EXPECT_TRUE(stats.all_answers_correct);
}

TEST(FaultChurnTest, CrashAndChurnNeverCauseUndefinedBehavior) {
  World world(49, 600, 8, 5);
  FaultPolicy policy;
  policy.drop_rate = 0.1;
  policy.duplicate_rate = 0.2;
  policy.reorder_rate = 0.3;
  policy.corrupt_rate = 0.002;
  policy.crash_rate = 0.5;
  policy.late_join_rate = 0.3;
  policy.max_retx = 4;
  policy.seed = FaultSeed();
  BoundingRectProcedure proc;
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, false, false, policy);
  for (int round = 0; round < 5; ++round) {
    const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
    EXPECT_LE(stats.crashed_clients + stats.late_join_clients, 5u);
    size_t subs = 0;
    for (const SimClient& client : sim.sim_clients()) {
      subs += client.subscriptions().size();
    }
    EXPECT_LE(stats.incomplete_answers, subs);
  }
}

// -------------------------------------------------------- client hygiene

TEST(FaultClientTest, MisroutedMessagesAreCountedNotFatal) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({1.0, 1.0}).ok());
  QuerySet queries({Rect(0, 0, 5, 5)});
  SimClient client(0, /*channel=*/1, &queries, {0});
  client.StartRound();
  Message msg;
  msg.channel = 0;  // Not this client's channel.
  msg.recipients = {0};
  msg.payload = {0};
  client.Receive(msg, table);
  EXPECT_EQ(client.stats().misrouted_messages, 1u);
  EXPECT_EQ(client.stats().headers_checked, 0u);
  EXPECT_TRUE(client.AnswerFor(0).empty());
}

// -------------------------------------------------- service + telemetry

TEST(FaultServiceTest, ServiceConfigPlumbsFaultPolicyAndObsCountsRecovery) {
  Rng rng(50);
  TableGeneratorConfig tconfig;
  tconfig.domain = Rect(0, 0, 100, 100);
  tconfig.num_objects = 800;
  Table data = GenerateTable(tconfig, &rng);

  ServiceConfig config;
  config.telemetry = true;
  config.fault.drop_rate = 0.2;
  config.fault.max_retx = 16;
  config.fault.seed = FaultSeed();
  SubscriptionService service(std::move(data), tconfig.domain, config);

  QueryGenConfig qconfig;
  qconfig.domain = tconfig.domain;
  qconfig.num_queries = 8;
  qconfig.max_extent = 0.3;
  Rng qrng(51);
  for (const Rect& rect : GenerateQueries(qconfig, &qrng)) {
    service.Subscribe(service.AddClient(), rect);
  }
  obs::MetricRegistry::Default().Reset();

  ASSERT_TRUE(service.Plan().ok());
  auto round = service.RunRound();
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->all_answers_correct);
  EXPECT_GT(round->retx_messages, 0u);

  const auto& registry = obs::MetricRegistry::Default();
  EXPECT_EQ(registry.CounterValue("net.recover.retx_messages"),
            round->retx_messages);
  EXPECT_EQ(registry.CounterValue("net.recover.nacks"), round->nacks);
  EXPECT_EQ(registry.CounterValue("net.recover.drops"), round->drops);
  obs::SetEnabled(false);
}

TEST(FaultServiceTest, DisengagedPolicyKeepsServiceOnLosslessPath) {
  Rng rng(52);
  TableGeneratorConfig tconfig;
  tconfig.domain = Rect(0, 0, 100, 100);
  tconfig.num_objects = 300;
  Table data = GenerateTable(tconfig, &rng);

  ServiceConfig config;
  config.fault.max_retx = 7;  // Budget alone does not engage faults.
  EXPECT_FALSE(config.fault.Engaged());
  SubscriptionService service(std::move(data), tconfig.domain, config);
  service.Subscribe(service.AddClient(), Rect(10, 10, 40, 40));
  ASSERT_TRUE(service.Plan().ok());
  auto round = service.RunRound();
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->all_answers_correct);
  EXPECT_EQ(round->nacks, 0u);
  EXPECT_EQ(round->retx_messages, 0u);
}

}  // namespace
}  // namespace qsp
