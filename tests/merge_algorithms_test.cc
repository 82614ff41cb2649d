#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"
#include "merge/rgs.h"
#include "obs/metrics.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "stats/size_estimator.h"
#include "tests/merge_reference.h"
#include "util/bell.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

/// Shared fixture pieces: random workload + context + model.
struct Instance {
  QuerySet queries;
  UniformDensityEstimator estimator{0.01};
  BoundingRectProcedure procedure;
  std::unique_ptr<MergeContext> ctx;
  CostModel model;

  Instance(size_t n, uint64_t seed, CostModel m = {4.0, 1.0, 1.0, 0.0})
      : model(m) {
    Rng rng(seed);
    QueryGenConfig config;
    config.num_queries = n;
    config.cf = 0.6;
    config.sf = 0.4;
    config.df = 0.04;
    queries = QuerySet(GenerateQueries(config, &rng));
    ctx = std::make_unique<MergeContext>(&queries, &estimator, &procedure);
  }
};

// ------------------------------------------------------------------- RGS

TEST(RgsTest, EnumeratesBellManyPartitions) {
  for (int n = 1; n <= 8; ++n) {
    RgsIterator it(n);
    uint64_t count = 1;
    while (it.Next()) ++count;
    EXPECT_EQ(count, BellNumber(n)) << "n=" << n;
  }
}

TEST(RgsTest, BoundedBlocksMatchesStirlingSums) {
  for (int n = 1; n <= 7; ++n) {
    for (int k = 1; k <= n; ++k) {
      RgsIterator it(n, k);
      uint64_t count = 1;
      while (it.Next()) ++count;
      EXPECT_EQ(count, PartitionsIntoAtMost(n, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(RgsTest, FirstIsOneBlockLastIsAllSingletons) {
  RgsIterator it(4);
  EXPECT_EQ(it.Current(), (std::vector<int>{0, 0, 0, 0}));
  std::vector<int> last;
  do {
    last = it.Current();
  } while (it.Next());
  EXPECT_EQ(last, (std::vector<int>{0, 1, 2, 3}));
}

TEST(RgsTest, BlocksRoundTrip) {
  const auto blocks = RgsToBlocks({0, 1, 0, 2, 1});
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(blocks[1], (std::vector<int>{1, 4}));
  EXPECT_EQ(blocks[2], (std::vector<int>{3}));
}

// ------------------------------------------------------------ Exhaustive

TEST(ExhaustiveMergerTest, RefusesLargeInputs) {
  Instance inst(6, 1);
  reference::ExhaustiveMerger merger(4);
  EXPECT_FALSE(merger.Merge(*inst.ctx, inst.model).ok());
}

TEST(ExhaustiveMergerTest, SingleQueryTrivial) {
  Instance inst(1, 2);
  reference::ExhaustiveMerger merger;
  auto result = merger.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition, (Partition{{0}}));
}

/// The single-allocation property (Section 6.1.1): the optimum over all
/// covers (queries may repeat) is never better than the optimum over
/// partitions, so the two searches must agree on cost.
class SingleAllocationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SingleAllocationProperty, CoverOptimumEqualsPartitionOptimum) {
  Instance inst(4, GetParam());
  reference::ExhaustiveMerger cover_search;
  PartitionMerger partition_search;
  auto cover = cover_search.Merge(*inst.ctx, inst.model);
  auto partition = partition_search.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(partition.ok());
  EXPECT_NEAR(cover->cost, partition->cost, 1e-9);
  // And the cover optimum is actually a valid partition.
  EXPECT_TRUE(IsValidPartition(cover->partition, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleAllocationProperty,
                         ::testing::Range<uint64_t>(300, 310));

// --------------------------------------------------------- PartitionMerger

TEST(PartitionMergerTest, EnumeratesBellManyCandidates) {
  Instance inst(6, 3);
  PartitionMerger merger;
  auto result = merger.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates, BellNumber(6));
}

TEST(PartitionMergerTest, RefusesHugeInputs) {
  Instance inst(20, 3);
  PartitionMerger merger(13);
  EXPECT_FALSE(merger.Merge(*inst.ctx, inst.model).ok());
}

TEST(PartitionMergerTest, ReturnsValidPartitionWithConsistentCost) {
  Instance inst(7, 4);
  PartitionMerger merger;
  auto result = merger.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsValidPartition(result->partition, 7));
  EXPECT_NEAR(result->cost,
              inst.model.PartitionCost(*inst.ctx, result->partition), 1e-9);
}

TEST(PartitionMergerTest, IdenticalQueriesAllMerge) {
  QuerySet qs({Rect(0, 0, 5, 5), Rect(0, 0, 5, 5), Rect(0, 0, 5, 5)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{1, 1, 1, 0};
  PartitionMerger merger;
  auto result = merger.Merge(ctx, model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition, (Partition{{0, 1, 2}}));
}

TEST(PartitionMergerTest, FarApartQueriesStaySeparate) {
  QuerySet qs({Rect(0, 0, 1, 1), Rect(500, 500, 501, 501),
               Rect(900, 0, 901, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{0.1, 1, 1, 0};
  PartitionMerger merger;
  auto result = merger.Merge(ctx, model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.size(), 3u);
}

TEST(ExactPartitionSearchTest, WorksOnArbitraryIdSubsets) {
  Instance inst(8, 5);
  const std::vector<QueryId> subset = {1, 4, 6};
  const MergeOutcome outcome =
      ExactPartitionSearch(*inst.ctx, inst.model, subset);
  EXPECT_EQ(outcome.candidates, BellNumber(3));
  std::set<QueryId> covered;
  for (const auto& group : outcome.partition) {
    covered.insert(group.begin(), group.end());
  }
  EXPECT_EQ(covered, (std::set<QueryId>{1, 4, 6}));
}

// ------------------------------------------------------------ PairMerger

TEST(PairMergerTest, OptimalForTwoQueries) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Instance inst(2, 700 + seed);
    PairMerger pair;
    PartitionMerger exact;
    auto greedy = pair.Merge(*inst.ctx, inst.model);
    auto optimal = exact.Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(optimal.ok());
    EXPECT_NEAR(greedy->cost, optimal->cost, 1e-9) << "seed " << seed;
  }
}

TEST(PairMergerTest, HeapAndTableVariantsAgree) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Instance inst(12, 800 + seed);
    PairMerger heap(true), table(false);
    auto a = heap.Merge(*inst.ctx, inst.model);
    auto b = table.Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->cost, b->cost, 1e-9) << "seed " << seed;
    // The variants must agree on the partition itself, not just its
    // cost — equal-benefit ties are broken by stable group ids in both.
    EXPECT_EQ(a->partition, b->partition) << "seed " << seed;
  }
}

TEST(PairMergerTest, TableVariantRunsTheProfitTable) {
  // use_heap = false must run the paper's Profit Table whatever the
  // pruning default: no bound is ever refined, and every pair is
  // evaluated.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    // A costly message makes several merges pay.
    Instance inst(14, 820 + seed, CostModel{400.0, 1.0, 1.0, 0.0});
    auto result = PairMerger(/*use_heap=*/false).Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(result.ok());
    const uint64_t n = inst.queries.size();
    const uint64_t groups = result->partition.size();
    ASSERT_LT(groups, n) << "seed " << seed << ": nothing merged";
    EXPECT_EQ(result->bounds_refined, 0u) << "seed " << seed;
    EXPECT_EQ(result->bounds_pruned, 0u) << "seed " << seed;
    EXPECT_EQ(result->candidates, reference::ProfitTableEvaluations(n, groups))
        << "seed " << seed;
  }
}

TEST(PairMergerTest, TieBrokenBySmallestStableGroupId) {
  // An equally spaced chain of overlapping queries: by translation
  // symmetry every adjacent merge has a bit-identical benefit, and only
  // two of the four tied merges fire before the search stops. Both
  // profit-table variants must resolve each tie to the smallest live
  // pair — by stable group id, never by heap pop order or map iteration
  // artifacts. (The third pick is the regression: after two merges the
  // heap's pop reorganization has shuffled the tied entries, and a
  // benefit-only comparator surfaces (5,6) ahead of (4,5), diverging
  // from the table's ordered scan.)
  QuerySet qs({Rect(0, 0, 2, 1), Rect(1, 0, 3, 1), Rect(2, 0, 4, 1),
               Rect(3, 0, 5, 1), Rect(4, 0, 6, 1), Rect(5, 0, 7, 1),
               Rect(6, 0, 8, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{1, 1, 0.5, 0};

  // The instance really is a tie: all adjacent merges are equally
  // beneficial, skip-a-step merges are worse.
  const double b01 = model.MergeBenefit(ctx, {0}, {1});
  ASSERT_GT(b01, 0.0);
  for (QueryId q = 1; q < 6; ++q) {
    ASSERT_EQ(model.MergeBenefit(ctx, {q}, {q + 1}), b01) << "pair " << q;
  }
  ASSERT_LT(model.MergeBenefit(ctx, {0}, {2}), b01);

  for (const bool use_heap : {true, false}) {
    PairMerger merger(use_heap);
    auto result = merger.Merge(ctx, model);
    ASSERT_TRUE(result.ok());
    const Partition expected = {{0, 1}, {2, 3}, {4, 5}, {6}};
    EXPECT_EQ(result->partition, expected)
        << (use_heap ? "heap" : "table")
        << " variant broke a tie away from the smallest live pair";
  }
}

// Pair merging over lattice rectangles (height 1) under the uniform
// estimator and the chain test's model, where benefits are sums of small
// dyadic numbers and so tie bit for bit. The partner-row heap, pruned and
// unpruned, must reproduce the Profit Table's partition and cost, and
// unpruned (every bound +infinity) it must refine exactly the pairs the
// table evaluates.
struct LatticeCase {
  QuerySet queries;
  UniformDensityEstimator estimator{1.0};
  BoundingRectProcedure procedure;
  MergeContext ctx{&queries, &estimator, &procedure};
  const CostModel model{1, 1, 0.5, 0};

  explicit LatticeCase(const std::vector<std::pair<int, int>>& spans)
      : queries(Rects(spans)) {}

  static std::vector<Rect> Rects(
      const std::vector<std::pair<int, int>>& spans) {
    std::vector<Rect> rects;
    for (const auto& [lo, hi] : spans) rects.emplace_back(lo, 0, hi, 1);
    return rects;
  }

  void ExpectRowsMatchTable(const Partition& expected) const {
    auto table = PairMerger(/*use_heap=*/false).Merge(ctx, model);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table->partition, expected);
    for (const bool pruning : {true, false}) {
      SCOPED_TRACE(pruning ? "pruned" : "unpruned");
      auto rows = PairMerger(/*use_heap=*/true, pruning).Merge(ctx, model);
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows->partition, table->partition);
      EXPECT_EQ(rows->cost, table->cost);
      if (!pruning) {
        EXPECT_EQ(rows->candidates, table->candidates);
        EXPECT_EQ(rows->bounds_refined, table->candidates);
      }
    }
  }
};

TEST(PairMergerTest, TiesAcrossPartnerRowsGoToTheSmallestPair) {
  {
    // Two seed rows whose heads tie: rows 2 and 3 hold the equal
    // adjacent pairs (2, 3) and (3, 4) of a chain laid out right to
    // left, and row 0's (0, 1) ties with both. The table picks (0, 1),
    // then (2, 3), leaving 4 alone.
    SCOPED_TRACE("seed rows");
    const LatticeCase c({{5, 7}, {4, 6}, {2, 4}, {1, 3}, {0, 2}});
    const double b = c.model.MergeBenefit(c.ctx, {2}, {3});
    ASSERT_GT(b, 0.0);
    ASSERT_EQ(c.model.MergeBenefit(c.ctx, {3}, {4}), b);
    ASSERT_EQ(c.model.MergeBenefit(c.ctx, {0}, {1}), b);
    c.ExpectRowsMatchTable({{0, 1}, {2, 3}, {4}});
  }
  {
    // A merged group's row tying with a seed row: 0 and 1 coincide and
    // merge first into group 4, whose row owns (2, 4); it ties with the
    // seed pair (2, 3). (2, 3) is the smaller pair; taking (2, 4)
    // instead would end at {0, 1, 2}, {3}.
    SCOPED_TRACE("merged row");
    const LatticeCase c({{0, 2}, {0, 2}, {1, 3}, {2, 5}});
    const double b = c.model.MergeBenefit(c.ctx, {2}, {3});
    ASSERT_GT(b, 0.0);
    ASSERT_EQ(c.model.MergeBenefit(c.ctx, {2}, {0, 1}), b);
    ASSERT_GT(c.model.MergeBenefit(c.ctx, {0}, {1}), b);
    c.ExpectRowsMatchTable({{0, 1}, {2, 3}});
  }
  {
    // A tie inside one row: 0 sits between its mirror images 1 and 2,
    // so row 0's pairs (0, 1) and (0, 2) tie, and the smaller partner
    // wins.
    SCOPED_TRACE("one row");
    const LatticeCase c({{1, 3}, {0, 2}, {2, 4}});
    const double b = c.model.MergeBenefit(c.ctx, {0}, {1});
    ASSERT_GT(b, 0.0);
    ASSERT_EQ(c.model.MergeBenefit(c.ctx, {0}, {2}), b);
    c.ExpectRowsMatchTable({{0, 1}, {2}});
  }
}

TEST(PairMergerTest, NeverWorseThanInitialCost) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Instance inst(15, 900 + seed);
    PairMerger merger;
    auto result = merger.Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->cost, inst.model.InitialCost(*inst.ctx) + 1e-9);
    EXPECT_TRUE(IsValidPartition(result->partition, 15));
  }
}

TEST(PairMergerTest, MergesIdenticalQueriesFirst) {
  QuerySet qs({Rect(0, 0, 5, 5), Rect(0, 0, 5, 5), Rect(800, 800, 900, 900)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{1, 1, 1, 0};
  PairMerger merger;
  auto result = merger.Merge(ctx, model);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->partition.size(), 2u);
  EXPECT_EQ(result->partition[0], (QueryGroup{0, 1}));
}

TEST(PairMergerTest, MergeFromRespectsStartPartition) {
  Instance inst(6, 6);
  PairMerger merger;
  // Start from everything already in one group: no pair exists, so the
  // result is that single group.
  MergeOutcome outcome =
      merger.MergeFrom(*inst.ctx, inst.model, OneGroupPartition(6));
  EXPECT_EQ(outcome.partition.size(), 1u);
}

TEST(PairMergerTest, MissesGloballyOptimalTripleByDesign) {
  // The Figure 6 instance: greedy local decisions keep all queries
  // separate although merging all three is the optimum (Section 5.1).
  QuerySet qs({Rect(0, 1, 2, 2), Rect(1, 0, 2, 2), Rect(0, 0, 1, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{10, 9, 4, 0};
  PairMerger pair;
  PartitionMerger exact;
  auto greedy = pair.Merge(ctx, model);
  auto optimal = exact.Merge(ctx, model);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(optimal.ok());
  EXPECT_EQ(greedy->partition.size(), 3u);
  EXPECT_EQ(optimal->partition.size(), 1u);
  EXPECT_GT(greedy->cost, optimal->cost);
}

// -------------------------------------------------------- DirectedSearch

TEST(DirectedSearchTest, EscapesThePairMergingTrap) {
  // On the Figure 6 instance, the random restarts + extract moves find
  // the global optimum the greedy merger misses.
  QuerySet qs({Rect(0, 1, 2, 2), Rect(1, 0, 2, 2), Rect(0, 0, 1, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{10, 9, 4, 0};
  DirectedSearchMerger merger(16, 7);
  auto result = merger.Merge(ctx, model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition, (Partition{{0, 1, 2}}));
  EXPECT_DOUBLE_EQ(result->cost, 74.0);
}

TEST(DirectedSearchTest, DeterministicInSeed) {
  Instance a(10, 42), b(10, 42);
  DirectedSearchMerger m1(6, 5), m2(6, 5);
  auto r1 = m1.Merge(*a.ctx, a.model);
  auto r2 = m2.Merge(*b.ctx, b.model);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->partition, r2->partition);
}

// A directed search with no restart has no descent to return: restarts
// < 1 is a configuration error, not an empty plan at cost 0 (or, for a
// negative count, a request for SIZE_MAX start partitions).
TEST(DirectedSearchTest, RejectsRestartsBelowOne) {
  Instance inst(10, 42);
  for (const int restarts : {0, -3}) {
    auto outcome =
        DirectedSearchMerger(restarts, 5).Merge(*inst.ctx, inst.model);
    ASSERT_FALSE(outcome.ok()) << "restarts " << restarts;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
        << "restarts " << restarts;
  }
}

TEST(DirectedSearchTest, NeverWorseThanPairMerging) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Instance inst(10, 1100 + seed);
    PairMerger pair;
    DirectedSearchMerger directed(6, seed);
    auto p = pair.Merge(*inst.ctx, inst.model);
    auto d = directed.Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(d.ok());
    // Restart 0 of the directed search IS pair-merging-like descent from
    // singletons with a superset of moves, so it can't end up worse.
    EXPECT_LE(d->cost, p->cost + 1e-9) << "seed " << seed;
    EXPECT_TRUE(IsValidPartition(d->partition, 10));
  }
}

// ------------------------------------------------------------ Clustering

TEST(ClusteringMergerTest, SeparatesFarComponentsExactly) {
  // Two tight pairs far apart: clustering should solve each exactly.
  QuerySet qs({Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), Rect(800, 800, 802, 802),
               Rect(801, 801, 803, 803)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{10, 1, 1, 0};
  ClusteringMerger clustering;
  PartitionMerger exact;
  auto c = clustering.Merge(ctx, model);
  auto e = exact.Merge(ctx, model);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(c->cost, e->cost, 1e-9);
  EXPECT_TRUE(IsValidPartition(c->partition, 4));
}

TEST(ClusteringMergerTest, UnionSizeBoundPlansAreValid) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Instance inst(12, 1300 + seed);
    auto result = ClusteringMerger().Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(IsValidPartition(result->partition, 12));
    EXPECT_LE(result->cost, inst.model.InitialCost(*inst.ctx) + 1e-9);
  }
}

TEST(ClusteringMergerTest, FallsBackToGreedyOnLargeComponents) {
  // A chain of heavily overlapping squares is one mergeable component,
  // larger than kExactComponentLimit, so the pair merger solves it.
  const size_t n = ClusteringMerger::kExactComponentLimit + 4;
  std::vector<Rect> rects;
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    rects.emplace_back(x, 0, x + 10, 10);
  }
  QuerySet qs(rects);
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{10, 1, 1, 0};
  obs::SetEnabled(true);
  auto& registry = obs::MetricRegistry::Default();
  registry.Reset();
  auto result = ClusteringMerger().Merge(ctx, model);
  const uint64_t exact =
      registry.CounterValue("merge.clustering.subsolves_exact");
  const uint64_t greedy =
      registry.CounterValue("merge.clustering.subsolves_greedy");
  registry.Reset();
  obs::SetEnabled(false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(0u, exact);
  EXPECT_EQ(1u, greedy);
  EXPECT_TRUE(IsValidPartition(result->partition, n));
}

// -------------------------------------------- Heuristics vs exact optimum

/// Property sweep backing Figures 16/17: on small instances the
/// heuristics stay within the [optimal, initial] bracket.
class HeuristicBracket : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeuristicBracket, AllHeuristicsWithinBracket) {
  Instance inst(8, GetParam());
  PartitionMerger exact;
  auto optimal = exact.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(optimal.ok());
  const double initial = inst.model.InitialCost(*inst.ctx);

  PairMerger pair;
  DirectedSearchMerger directed(6, GetParam());
  ClusteringMerger clustering;
  for (const Merger* merger :
       std::initializer_list<const Merger*>{&pair, &directed, &clustering}) {
    auto result = merger->Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(result.ok()) << merger->name();
    EXPECT_GE(result->cost, optimal->cost - 1e-9) << merger->name();
    EXPECT_LE(result->cost, initial + 1e-9) << merger->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicBracket,
                         ::testing::Range<uint64_t>(1400, 1420));

}  // namespace
}  // namespace qsp
