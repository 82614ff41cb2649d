#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "channel/channel_cost.h"
#include "channel/client_set.h"
#include "channel/exhaustive_allocator.h"
#include "channel/hill_climb_allocator.h"
#include "cost/cost_model.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "stats/size_estimator.h"
#include "util/bell.h"
#include "util/rng.h"
#include "workload/client_gen.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

// -------------------------------------------------------------- ClientSet

TEST(ClientSetTest, SubscriptionsAreSortedAndDeduped) {
  ClientSet clients;
  const ClientId c = clients.AddClient();
  clients.Subscribe(c, 5);
  clients.Subscribe(c, 1);
  clients.Subscribe(c, 5);
  EXPECT_EQ(clients.QueriesOf(c), (std::vector<QueryId>{1, 5}));
}

TEST(ClientSetTest, SubscribersOf) {
  ClientSet clients;
  const ClientId a = clients.AddClient();
  const ClientId b = clients.AddClient();
  clients.Subscribe(a, 7);
  clients.Subscribe(b, 7);
  clients.Subscribe(b, 9);
  EXPECT_EQ(clients.SubscribersOf(7), (std::vector<ClientId>{a, b}));
  EXPECT_EQ(clients.SubscribersOf(9), (std::vector<ClientId>{b}));
  EXPECT_TRUE(clients.SubscribersOf(42).empty());
}

// The subscriber index Subscribe and Unsubscribe keep equals a scan of
// every client's subscriptions, through random churn that repeats
// subscriptions and retires ones that were never made.
TEST(ClientSetTest, SubscribersOfMatchesScanUnderChurn) {
  ClientSet clients;
  for (int c = 0; c < 9; ++c) clients.AddClient();
  Rng rng(5);
  constexpr QueryId kQueries = 40;
  for (int step = 0; step < 3000; ++step) {
    const ClientId c = static_cast<ClientId>(rng.UniformInt(0, 8));
    const QueryId q = static_cast<QueryId>(rng.UniformInt(0, kQueries - 1));
    if (rng.UniformDouble(0, 1) < 0.55) {
      clients.Subscribe(c, q);
    } else {
      clients.Unsubscribe(c, q);
    }
    if (step % 100 != 99) continue;
    for (QueryId query = 0; query <= kQueries; ++query) {
      std::vector<ClientId> scan;
      for (ClientId client = 0; client < clients.num_clients(); ++client) {
        const auto& subs = clients.QueriesOf(client);
        if (std::binary_search(subs.begin(), subs.end(), query)) {
          scan.push_back(client);
        }
      }
      EXPECT_EQ(clients.SubscribersOf(query), scan)
          << "query " << query << " after step " << step;
    }
  }
}

TEST(ClientSetTest, QueriesOfClientsUnion) {
  ClientSet clients;
  const ClientId a = clients.AddClient();
  const ClientId b = clients.AddClient();
  clients.Subscribe(a, 3);
  clients.Subscribe(a, 1);
  clients.Subscribe(b, 3);
  clients.Subscribe(b, 8);
  EXPECT_EQ(clients.QueriesOfClients({a, b}),
            (std::vector<QueryId>{1, 3, 8}));
}

TEST(AllocationTest, CanonicalizeAndValidate) {
  Allocation alloc = {{2, 0}, {}, {1}};
  CanonicalizeAllocation(&alloc);
  ASSERT_EQ(alloc.size(), 2u);
  EXPECT_EQ(alloc[0], (std::vector<ClientId>{0, 2}));
  EXPECT_EQ(alloc[1], (std::vector<ClientId>{1}));
  EXPECT_TRUE(IsValidAllocation(alloc, 3, 2));
  EXPECT_FALSE(IsValidAllocation(alloc, 3, 1));   // Too many channels.
  EXPECT_FALSE(IsValidAllocation(alloc, 4, 2));   // Client 3 missing.
  EXPECT_FALSE(IsValidAllocation({{0, 0}}, 1, 1));  // Duplicate client.
}

TEST(AllocationTest, ToString) {
  EXPECT_EQ(AllocationToString({{0, 2}, {1}}), "[{0,2} {1}]");
}

// ------------------------------------------------------------ Fixtures

/// A small battlefield: clients with geographically coherent queries.
struct ChannelInstance {
  QuerySet queries;
  ClientSet clients;
  UniformDensityEstimator estimator{0.01};
  BoundingRectProcedure procedure;
  std::unique_ptr<MergeContext> ctx;
  CostModel model{4.0, 1.0, 1.0, 0.0};
  std::unique_ptr<ChannelCostEvaluator> evaluator;

  ChannelInstance(size_t num_queries, size_t num_clients, uint64_t seed,
                  double k_d = 0.0) {
    model.k_d = k_d;
    Rng rng(seed);
    QueryGenConfig config;
    config.num_queries = num_queries;
    config.cf = 0.7;
    queries = QuerySet(GenerateQueries(config, &rng));
    clients = AssignClients(queries, num_clients,
                            ClientAssignment::kLocality, &rng);
    ctx = std::make_unique<MergeContext>(&queries, &estimator, &procedure);
    evaluator =
        std::make_unique<ChannelCostEvaluator>(ctx.get(), model, &clients);
  }
};

// --------------------------------------------------- ChannelCostEvaluator

TEST(ChannelCostTest, EmptyChannelIsFree) {
  ChannelInstance inst(6, 3, 1);
  EXPECT_EQ(inst.evaluator->Cost({}), 0.0);
}

TEST(ChannelCostTest, CostIsOrderInsensitiveAndCached) {
  ChannelInstance inst(6, 3, 1);
  const double ab = inst.evaluator->Cost({0, 1});
  const uint64_t evals = inst.evaluator->evaluations();
  EXPECT_DOUBLE_EQ(inst.evaluator->Cost({1, 0}), ab);
  EXPECT_EQ(inst.evaluator->evaluations(), evals);  // Cache hit.
}

TEST(ChannelCostTest, PlanMatchesCost) {
  ChannelInstance inst(8, 4, 2);
  const std::vector<ClientId> channel = {0, 2};
  EXPECT_NEAR(inst.evaluator->Plan(channel).cost,
              inst.evaluator->Cost(channel), 1e-9);
}

TEST(ChannelCostTest, TotalCostAddsKDPerUsedChannel) {
  ChannelInstance inst(6, 3, 3, /*k_d=*/5.0);
  const Allocation one = {{0, 1, 2}};
  const Allocation two = {{0, 1}, {2}};
  const double one_cost = inst.evaluator->TotalCost(one);
  const double two_cost = inst.evaluator->TotalCost(two);
  EXPECT_NEAR(one_cost,
              inst.evaluator->Cost({0, 1, 2}) + 5.0, 1e-9);
  EXPECT_NEAR(two_cost,
              inst.evaluator->Cost({0, 1}) + inst.evaluator->Cost({2}) + 10.0,
              1e-9);
}

TEST(ChannelCostTest, SharedQueryPaidOnEachChannel) {
  // One query subscribed by two clients: splitting them across channels
  // transmits it twice, so the split can never be cheaper than K_M+K_T*S.
  QuerySet queries({Rect(0, 0, 10, 10)});
  ClientSet clients;
  const ClientId a = clients.AddClient();
  const ClientId b = clients.AddClient();
  clients.Subscribe(a, 0);
  clients.Subscribe(b, 0);
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&queries, &est, &proc);
  const CostModel model{1, 1, 1, 0};
  ChannelCostEvaluator evaluator(&ctx, model, &clients);
  const double together = evaluator.TotalCost({{a, b}});
  const double split = evaluator.TotalCost({{a}, {b}});
  EXPECT_NEAR(split, 2.0 * together, 1e-9);
}

TEST(ChannelCostTest, KCheckChargesPerClientPerMessage) {
  // Two clients with disjoint far-apart queries. With k_check > 0,
  // putting both on one channel makes each check the other's message;
  // splitting them removes that cost.
  QuerySet queries({Rect(0, 0, 10, 10), Rect(900, 900, 910, 910)});
  ClientSet clients;
  const ClientId a = clients.AddClient();
  const ClientId b = clients.AddClient();
  clients.Subscribe(a, 0);
  clients.Subscribe(b, 1);
  UniformDensityEstimator est(0.01);
  BoundingRectProcedure proc;
  MergeContext ctx(&queries, &est, &proc);
  CostModel model{1, 1, 1, 0};
  model.k_check = 4.0;
  ChannelCostEvaluator evaluator(&ctx, model, &clients);
  // Together: 2 messages, each checked by 2 clients -> K_M' = 1 + 8.
  // Split: each channel has 1 message checked by 1 client -> K_M' = 5.
  const double together = evaluator.TotalCost({{a, b}});
  const double split = evaluator.TotalCost({{a}, {b}});
  EXPECT_LT(split, together);
  EXPECT_NEAR(together - split, 2 * 4.0, 1e-9);  // Two saved checks.
}

TEST(ChannelCostTest, FromComponentsMultiChannelKeepsK6Separate) {
  const CostModel model =
      CostModel::FromComponentsMultiChannel(1, 2, 3, 4, 5, 6);
  EXPECT_DOUBLE_EQ(model.k_m, 5.0);  // k1 + k4 only.
  EXPECT_DOUBLE_EQ(model.k_t, 5.0);
  EXPECT_DOUBLE_EQ(model.k_u, 5.0);
  EXPECT_DOUBLE_EQ(model.k_check, 6.0);
}

TEST(ChannelCostTest, SplittingNeverHelpsWithoutKCheckOrKD) {
  // With k_check = k_d = 0, one channel can always replicate any split's
  // grouping, so the exhaustive optimum is the single channel.
  ChannelInstance inst(8, 4, 77);
  ExhaustiveAllocator exact;
  auto two = exact.Allocate(*inst.evaluator, 2);
  ASSERT_TRUE(two.ok());
  const double one_channel =
      inst.evaluator->TotalCost({inst.clients.AllClients()});
  EXPECT_NEAR(two->cost, one_channel, 1e-9);
}

// ---------------------------------------------------- ExhaustiveAllocator

TEST(ExhaustiveAllocatorTest, RefusesTooManyClients) {
  ChannelInstance inst(10, 14, 4);
  ExhaustiveAllocator allocator(12);
  EXPECT_FALSE(allocator.Allocate(*inst.evaluator, 2).ok());
}

TEST(ExhaustiveAllocatorTest, RejectsZeroChannels) {
  ChannelInstance inst(6, 3, 4);
  ExhaustiveAllocator allocator;
  EXPECT_FALSE(allocator.Allocate(*inst.evaluator, 0).ok());
}

TEST(ExhaustiveAllocatorTest, SingleChannelPutsEveryoneTogether) {
  ChannelInstance inst(6, 4, 5);
  ExhaustiveAllocator allocator;
  auto result = allocator.Allocate(*inst.evaluator, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->allocation.size(), 1u);
  EXPECT_EQ(result->allocation[0].size(), 4u);
}

TEST(ExhaustiveAllocatorTest, CandidateCountMatchesStirlingSums) {
  ChannelInstance inst(6, 5, 6);
  ExhaustiveAllocator allocator;
  auto result = allocator.Allocate(*inst.evaluator, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates, PartitionsIntoAtMost(5, 3));
}

TEST(ExhaustiveAllocatorTest, ValidAllocationAndConsistentCost) {
  ChannelInstance inst(8, 6, 7);
  ExhaustiveAllocator allocator;
  auto result = allocator.Allocate(*inst.evaluator, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsValidAllocation(result->allocation, 6, 2));
  EXPECT_NEAR(result->cost, inst.evaluator->TotalCost(result->allocation),
              1e-9);
}

// ----------------------------------------------------- HillClimbAllocator

TEST(HillClimbTest, SeededStartCoversAllClients) {
  ChannelInstance inst(10, 6, 8);
  const Allocation start =
      HillClimbAllocator::SeededStart(*inst.evaluator, 3);
  EXPECT_EQ(start.size(), 3u);
  Allocation copy = start;
  CanonicalizeAllocation(&copy);
  EXPECT_TRUE(IsValidAllocation(copy, 6, 3));
}

TEST(HillClimbTest, RandomStartCoversAllClients) {
  Rng rng(9);
  Allocation start = HillClimbAllocator::RandomStart(7, 3, &rng);
  CanonicalizeAllocation(&start);
  EXPECT_TRUE(IsValidAllocation(start, 7, 3));
}

TEST(HillClimbTest, ProducesValidAllocation) {
  ChannelInstance inst(12, 6, 10);
  HillClimbAllocator allocator(StartPolicy::kBestOfBoth, 1);
  auto result = allocator.Allocate(*inst.evaluator, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsValidAllocation(result->allocation, 6, 3));
  EXPECT_NEAR(result->cost, inst.evaluator->TotalCost(result->allocation),
              1e-9);
}

TEST(HillClimbTest, BestOfBothIsNoWorseThanEitherPolicy) {
  ChannelInstance inst(12, 6, 11);
  HillClimbAllocator seeded(StartPolicy::kSeeded, 3);
  HillClimbAllocator random(StartPolicy::kRandom, 3);
  HillClimbAllocator both(StartPolicy::kBestOfBoth, 3);
  auto s = seeded.Allocate(*inst.evaluator, 3);
  auto r = random.Allocate(*inst.evaluator, 3);
  auto b = both.Allocate(*inst.evaluator, 3);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->cost, s->cost + 1e-9);
  EXPECT_LE(b->cost, r->cost + 1e-9);
}

TEST(HillClimbTest, RejectsZeroChannels) {
  ChannelInstance inst(6, 3, 12);
  HillClimbAllocator allocator;
  EXPECT_FALSE(allocator.Allocate(*inst.evaluator, 0).ok());
}

/// Property backing Figures 18/19: the heuristic lands in
/// [optimal, no-merging] and is exactly optimal in most runs.
class AllocationQuality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocationQuality, HeuristicWithinBracket) {
  ChannelInstance inst(10, 6, GetParam());
  ExhaustiveAllocator exact;
  HillClimbAllocator heuristic(StartPolicy::kBestOfBoth, GetParam());
  auto optimal = exact.Allocate(*inst.evaluator, 2);
  auto result = heuristic.Allocate(*inst.evaluator, 2);
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->cost, optimal->cost - 1e-9);
  // All clients on one channel is always a feasible allocation, so the
  // heuristic must beat or match it.
  const double one_channel =
      inst.evaluator->TotalCost({inst.clients.AllClients()});
  EXPECT_LE(result->cost, one_channel + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationQuality,
                         ::testing::Range<uint64_t>(700, 712));

}  // namespace
}  // namespace qsp
