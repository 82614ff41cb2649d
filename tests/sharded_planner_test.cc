// ShardedPlanner (merge/sharded_planner.h): the sharded parallel
// planning layer (DESIGN.md §12). The contracts under test: shards=1 is
// byte-identical to the wrapped merger for every merger kind; multi-
// shard plans are valid partitions whose reported cost matches a
// from-scratch recomputation on a fresh context; a group attributed to a
// shard stays inside it; outputs (including the shard attribution) are
// deterministic across runs and thread counts; and boundless queries
// always flow through the seam pass.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cost/cost_model.h"
#include "exec/thread_pool.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/shard_assign.h"
#include "merge/sharded_planner.h"
#include "obs/metrics.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "stats/size_estimator.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

constexpr uint64_t kSeeds[] = {5, 17};

struct Instance {
  QuerySet queries;
  std::unique_ptr<SizeEstimator> estimator;
  std::unique_ptr<MergeProcedure> procedure;
  std::unique_ptr<MergeContext> ctx;

  Instance(size_t n, uint64_t seed, size_t empty_rects = 0) {
    Rng rng(seed);
    std::vector<Rect> rects =
        GenerateQueries(bench::Fig16WorkloadConfig(n), &rng);
    for (size_t i = 0; i < empty_rects; ++i) rects.push_back(Rect::Empty());
    queries = QuerySet(rects);
    estimator = std::make_unique<UniformDensityEstimator>(bench::kFig16Density);
    procedure = std::make_unique<BoundingRectProcedure>();
    ctx = std::make_unique<MergeContext>(&queries, estimator.get(),
                                         procedure.get());
  }
};

struct MergerCase {
  std::string name;
  std::unique_ptr<Merger> (*make)(uint64_t seed);
};

const MergerCase kMergers[] = {
    {"pair-merging",
     [](uint64_t) -> std::unique_ptr<Merger> {
       return std::make_unique<PairMerger>(/*use_heap=*/true, /*pruning=*/true);
     }},
    {"clustering",
     [](uint64_t) -> std::unique_ptr<Merger> {
       return std::make_unique<ClusteringMerger>(/*pruning=*/true);
     }},
    {"directed-search",
     [](uint64_t seed) -> std::unique_ptr<Merger> {
       return std::make_unique<DirectedSearchMerger>(4, seed, /*pruning=*/true);
     }},
};

// shards=1 must be the wrapped merger, byte for byte: same partition,
// same cost, same effort counters — the delegation makes the knob's
// default a provable no-op, which is why callers need no unsharded
// branch of their own.
TEST(ShardedPlannerTest, ShardsOneIsByteIdenticalToUnsharded) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    for (const uint64_t seed : kSeeds) {
      const std::string label = mc.name + "/seed" + std::to_string(seed);
      Instance plain_inst(60, seed);
      auto plain = mc.make(seed)->Merge(*plain_inst.ctx, model);
      ASSERT_TRUE(plain.ok()) << label;

      Instance sharded_inst(60, seed);
      const auto inner = mc.make(seed);
      const ShardedPlanner planner(
          inner.get(), ShardedPlanner::Options{.shards = 1, .pruning = true});
      auto sharded = planner.Plan(*sharded_inst.ctx, model);
      ASSERT_TRUE(sharded.ok()) << label;

      EXPECT_EQ(sharded->outcome.partition, plain->partition) << label;
      EXPECT_EQ(sharded->outcome.cost, plain->cost) << label;
      EXPECT_EQ(sharded->outcome.candidates, plain->candidates) << label;
      // All groups attributed to the single shard.
      ASSERT_EQ(sharded->group_shard.size(),
                sharded->outcome.partition.size())
          << label;
      for (int32_t s : sharded->group_shard) EXPECT_EQ(s, 0) << label;
      EXPECT_EQ(sharded->layout.num_shards, 1) << label;
    }
  }
}

// Callers hand the planner whatever shard count they were given, so a
// zero or negative request takes the same delegation path as 1: the
// wrapped merger's plan and counters, every group in shard 0, and the
// default layout with no seam work.
TEST(ShardedPlannerTest, NonPositiveShardsDelegateLikeOne) {
  const CostModel model = bench::Fig16CostModel();
  const PairMerger inner(/*use_heap=*/true, /*pruning=*/true);
  Instance plain_inst(60, 5);
  auto plain = inner.Merge(*plain_inst.ctx, model);
  ASSERT_TRUE(plain.ok());
  for (const int shards : {0, -4}) {
    const std::string label = "shards" + std::to_string(shards);
    Instance inst(60, 5);
    const ShardedPlanner planner(
        &inner, ShardedPlanner::Options{.shards = shards, .pruning = true});
    auto plan = planner.Plan(*inst.ctx, model);
    ASSERT_TRUE(plan.ok()) << label;
    EXPECT_EQ(plan->outcome.partition, plain->partition) << label;
    EXPECT_EQ(plan->outcome.cost, plain->cost) << label;
    EXPECT_EQ(plan->outcome.candidates, plain->candidates) << label;
    EXPECT_EQ(plan->outcome.bounds_refined, plain->bounds_refined) << label;
    EXPECT_EQ(plan->outcome.bounds_pruned, plain->bounds_pruned) << label;
    ASSERT_EQ(plan->group_shard.size(), plan->outcome.partition.size())
        << label;
    for (int32_t s : plan->group_shard) EXPECT_EQ(s, 0) << label;
    EXPECT_EQ(plan->layout.num_shards, 1) << label;
    EXPECT_TRUE(plan->layout.shard_of.empty()) << label;
    EXPECT_TRUE(plan->layout.cuts.empty()) << label;
    EXPECT_EQ(plan->imbalance, 0.0) << label;
    EXPECT_EQ(plan->seam_groups_in, 0u) << label;
    EXPECT_EQ(plan->seam_merges, 0u) << label;
  }
}

// Attribution is honest: the plan's layout is AssignShards over the
// queries' rectangles; a group attributed to shard s holds only shard-s
// queries and its MBR stays strictly inside the shard's box on every
// seam side; and the seam groups are exactly what the boundary pass
// left (groups in minus merges).
TEST(ShardedPlannerTest, AttributedGroupsStayInsideTheirShard) {
  const CostModel model = bench::Fig16CostModel();
  const PairMerger inner(/*use_heap=*/true, /*pruning=*/true);
  for (const int shards : {4, 9}) {
    const std::string label = "shards" + std::to_string(shards);
    Instance inst(150, 23, /*empty_rects=*/1);
    std::vector<Rect> rects;
    for (QueryId id = 0; id < inst.queries.size(); ++id) {
      rects.push_back(inst.queries.rect(id));
    }
    const ShardedPlanner planner(
        &inner, ShardedPlanner::Options{.shards = shards, .pruning = true});
    auto plan = planner.Plan(*inst.ctx, model);
    ASSERT_TRUE(plan.ok()) << label;
    const ShardLayout& layout = plan->layout;
    const ShardLayout want = AssignShards(rects, shards);
    ASSERT_EQ(layout.num_shards, want.num_shards) << label;
    EXPECT_GT(layout.num_shards, 1) << label;
    EXPECT_EQ(layout.shard_of, want.shard_of) << label;
    EXPECT_EQ(layout.shard_cost, want.shard_cost) << label;
    EXPECT_EQ(layout.shard_queries, want.shard_queries) << label;
    EXPECT_EQ(plan->imbalance, want.Imbalance()) << label;

    ASSERT_EQ(plan->group_shard.size(), plan->outcome.partition.size())
        << label;
    size_t seam_groups = 0;
    for (size_t g = 0; g < plan->outcome.partition.size(); ++g) {
      const int32_t s = plan->group_shard[g];
      if (s == ShardedMergeOutcome::kSeamGroup) {
        ++seam_groups;
        continue;
      }
      const Rect& box = layout.shard_box[static_cast<size_t>(s)];
      const ShardLayout::SeamSides& open =
          layout.shard_open[static_cast<size_t>(s)];
      Rect mbr = Rect::Empty();
      for (QueryId q : plan->outcome.partition[g]) {
        EXPECT_EQ(layout.shard_of[q], s) << label << " query " << q;
        mbr = mbr.BoundingUnion(rects[q]);
      }
      const std::string where = label + " group " + std::to_string(g);
      EXPECT_FALSE(mbr.IsEmpty()) << where;
      EXPECT_TRUE(!open.x_lo || mbr.x_lo() > box.x_lo()) << where;
      EXPECT_TRUE(!open.x_hi || mbr.x_hi() < box.x_hi()) << where;
      EXPECT_TRUE(!open.y_lo || mbr.y_lo() > box.y_lo()) << where;
      EXPECT_TRUE(!open.y_hi || mbr.y_hi() < box.y_hi()) << where;
    }
    EXPECT_GT(seam_groups, 0u) << label;
    EXPECT_EQ(seam_groups, plan->seam_groups_in - plan->seam_merges)
        << label;
  }
}

// Multi-shard plans: valid partitions, cost verified against a fresh
// context (the sim/churn invariant-checker idea — the planner must not
// be grading its own homework through a stale memo), attribution
// shaped correctly, and cost within a sane factor of the unsharded plan.
TEST(ShardedPlannerTest, MultiShardPlansAreValidAndCostVerified) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    for (const uint64_t seed : kSeeds) {
      for (const int shards : {4, 9}) {
        const std::string label = mc.name + "/seed" + std::to_string(seed) +
                                  "/shards" + std::to_string(shards);
        Instance inst(120, seed);
        const size_t n = inst.queries.size();
        const auto inner = mc.make(seed);
        const ShardedPlanner planner(
            inner.get(),
            ShardedPlanner::Options{.shards = shards, .pruning = true});
        auto plan = planner.Plan(*inst.ctx, model);
        ASSERT_TRUE(plan.ok()) << label;

        EXPECT_TRUE(IsValidPartition(plan->outcome.partition, n)) << label;
        ASSERT_EQ(plan->group_shard.size(), plan->outcome.partition.size())
            << label;
        // The request is a budget (the extent floor may stop the
        // bisection early).
        const int num_shards = plan->layout.num_shards;
        EXPECT_GE(num_shards, 1) << label;
        EXPECT_LE(num_shards, shards) << label;
        for (int32_t s : plan->group_shard) {
          EXPECT_GE(s, ShardedMergeOutcome::kSeamGroup) << label;
          EXPECT_LT(s, num_shards) << label;
        }
        // Every query is assigned, and the per-shard accounting in the
        // layout covers every query exactly once.
        size_t shard_queries = 0;
        for (size_t q : plan->layout.shard_queries) shard_queries += q;
        EXPECT_EQ(shard_queries, n) << label;
        ASSERT_EQ(plan->layout.shard_of.size(), n) << label;
        EXPECT_GT(plan->imbalance, 0.0) << label;

        // From-scratch cost recomputation on a fresh context.
        Instance fresh(120, seed);
        EXPECT_EQ(plan->outcome.cost,
                  model.PartitionCost(*fresh.ctx, plan->outcome.partition))
            << label;

        // Locality sanity: sharding trades a little plan quality for
        // parallel planning; it must never be wildly worse than the
        // unsharded plan (the bench gates 2% at scale) nor beat the
        // no-merge baseline's ceiling.
        auto unsharded = mc.make(seed)->Merge(*fresh.ctx, model);
        ASSERT_TRUE(unsharded.ok()) << label;
        EXPECT_LE(plan->outcome.cost, unsharded->cost * 1.10) << label;
        EXPECT_LE(plan->outcome.cost,
                  model.InitialCost(*fresh.ctx) * (1.0 + 1e-9))
            << label;
      }
    }
  }
}

// Determinism: identical outputs (partition, cost, attribution) on
// repeated runs and across exec thread counts — shard fan-out must not
// leak scheduling into the plan.
TEST(ShardedPlannerTest, MultiShardOutputsAreThreadCountInvariant) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    Partition baseline_partition;
    std::vector<int32_t> baseline_shard;
    double baseline_cost = 0.0;
    for (const int threads : {1, 4}) {
      exec::SetDefaultThreads(threads);
      Instance inst(100, 23);
      const auto inner = mc.make(23);
      const ShardedPlanner planner(
          inner.get(), ShardedPlanner::Options{.shards = 4, .pruning = true});
      auto plan = planner.Plan(*inst.ctx, model);
      const std::string label =
          mc.name + " threads " + std::to_string(threads);
      ASSERT_TRUE(plan.ok()) << label;
      if (threads == 1) {
        baseline_partition = plan->outcome.partition;
        baseline_shard = plan->group_shard;
        baseline_cost = plan->outcome.cost;
      } else {
        EXPECT_EQ(plan->outcome.partition, baseline_partition) << label;
        EXPECT_EQ(plan->group_shard, baseline_shard) << label;
        EXPECT_EQ(plan->outcome.cost, baseline_cost) << label;
      }
    }
    exec::SetDefaultThreads(1);
  }
}

// Boundless queries have no shard home: they park in shard 0 but their
// groups are always seam-classified, so cross-shard reconciliation sees
// them (the boundless-pair bugfix end to end).
TEST(ShardedPlannerTest, BoundlessQueriesFlowThroughSeamPass) {
  const CostModel model = bench::Fig16CostModel();
  Instance inst(80, 31, /*empty_rects=*/2);
  const size_t n = inst.queries.size();
  const PairMerger inner(/*use_heap=*/true, /*pruning=*/true);
  const ShardedPlanner planner(
      &inner, ShardedPlanner::Options{.shards = 4, .pruning = true});
  auto plan = planner.Plan(*inst.ctx, model);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(IsValidPartition(plan->outcome.partition, n));
  // Find the groups holding the two empty-rect queries (the last ids).
  for (QueryId empty_id :
       {static_cast<QueryId>(n - 2), static_cast<QueryId>(n - 1)}) {
    bool found = false;
    for (size_t g = 0; g < plan->outcome.partition.size(); ++g) {
      const QueryGroup& group = plan->outcome.partition[g];
      if (std::find(group.begin(), group.end(), empty_id) == group.end()) {
        continue;
      }
      found = true;
      EXPECT_EQ(plan->group_shard[g], ShardedMergeOutcome::kSeamGroup)
          << "group of boundless query " << empty_id
          << " was not seam-classified";
    }
    EXPECT_TRUE(found) << "boundless query " << empty_id << " missing";
  }
}

// A PairMerger never asks again for a group it has evaluated, so shard
// contexts are evaluate-only under it, and the caller's context may be
// either kind: the partition, shard attribution, cost and effort
// counters are the same, byte for byte, at every shard and thread count.
TEST(ShardedPlannerTest, PairPlansDoNotDependOnTheCallersMemo) {
  const CostModel model = bench::Fig16CostModel();
  const PairMerger inner(/*use_heap=*/true, /*pruning=*/true);
  ASSERT_EQ(inner.ContextMemo(), GroupMemo::kEvaluateOnly);
  for (const uint64_t seed : kSeeds) {
    for (const int shards : {1, 4, 8}) {
      for (const int threads : {1, 4}) {
        exec::SetDefaultThreads(threads);
        const std::string label = "seed " + std::to_string(seed) +
                                  " shards " + std::to_string(shards) +
                                  " threads " + std::to_string(threads);
        const ShardedPlanner planner(
            &inner, ShardedPlanner::Options{.shards = shards, .pruning = true});
        Instance inst(150, seed);
        const MergeContext evaluate_only(&inst.queries, inst.estimator.get(),
                                         inst.procedure.get(),
                                         GroupMemo::kEvaluateOnly);
        auto stored = planner.Plan(*inst.ctx, model);
        auto computed = planner.Plan(evaluate_only, model);
        ASSERT_TRUE(stored.ok()) << label;
        ASSERT_TRUE(computed.ok()) << label;
        EXPECT_EQ(computed->outcome.partition, stored->outcome.partition)
            << label;
        EXPECT_EQ(computed->outcome.cost, stored->outcome.cost) << label;
        EXPECT_EQ(computed->group_shard, stored->group_shard) << label;
        EXPECT_EQ(computed->outcome.candidates, stored->outcome.candidates)
            << label;
        EXPECT_EQ(computed->outcome.bounds_refined,
                  stored->outcome.bounds_refined)
            << label;
        EXPECT_EQ(computed->outcome.bounds_pruned,
                  stored->outcome.bounds_pruned)
            << label;
        EXPECT_EQ(computed->seam_merges, stored->seam_merges) << label;
        EXPECT_EQ(evaluate_only.cached_groups(), 0u) << label;
        EXPECT_GT(evaluate_only.groups_evaluated(), 0u) << label;
      }
    }
  }
  exec::SetDefaultThreads(1);
}

// The searches revisit groups, so their shard contexts keep the memo.
// With an evaluate-only caller context, memo hits can only come from the
// shard contexts: a clustering inner merger records some, a pair inner
// merger none.
TEST(ShardedPlannerTest, ShardContextsStoreOnlyForMergersThatRevisitGroups) {
  const CostModel model = bench::Fig16CostModel();
  const ClusteringMerger clustering(/*pruning=*/true);
  const PairMerger pair(/*use_heap=*/true, /*pruning=*/true);
  ASSERT_EQ(clustering.ContextMemo(), GroupMemo::kStore);
  auto& registry = obs::MetricRegistry::Default();
  for (const Merger* inner : {static_cast<const Merger*>(&clustering),
                              static_cast<const Merger*>(&pair)}) {
    Instance inst(150, 5);
    auto reference = ShardedPlanner(inner, {.shards = 4, .pruning = true})
                         .Plan(*inst.ctx, model);
    ASSERT_TRUE(reference.ok()) << inner->name();

    obs::SetEnabled(true);
    registry.Reset();
    const MergeContext evaluate_only(&inst.queries, inst.estimator.get(),
                                     inst.procedure.get(),
                                     GroupMemo::kEvaluateOnly);
    auto plan = ShardedPlanner(inner, {.shards = 4, .pruning = true})
                    .Plan(evaluate_only, model);
    const uint64_t hits = registry.CounterValue("ctx.group_cache.hits");
    const uint64_t misses = registry.CounterValue("ctx.group_cache.misses");
    registry.Reset();
    obs::SetEnabled(false);

    ASSERT_TRUE(plan.ok()) << inner->name();
    EXPECT_EQ(plan->outcome.partition, reference->outcome.partition)
        << inner->name();
    EXPECT_EQ(plan->outcome.cost, reference->outcome.cost) << inner->name();
    if (inner == &clustering) {
      EXPECT_GT(hits, 0u);
      EXPECT_GT(misses, 0u);
    } else {
      EXPECT_EQ(hits, 0u);
      EXPECT_EQ(misses, 0u);
    }
  }
}

}  // namespace
}  // namespace qsp
