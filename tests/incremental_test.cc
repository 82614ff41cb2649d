#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cost/cost_model.h"
#include "merge/incremental_merger.h"
#include "merge/merger.h"
#include "merge/pair_merger.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "stats/size_estimator.h"
#include "tests/merge_reference.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

class IncrementalTest : public ::testing::Test {
 protected:
  IncrementalTest()
      : estimator_(1.0), ctx_(&queries_, &estimator_, &procedure_) {}

  QuerySet queries_;
  UniformDensityEstimator estimator_;
  BoundingRectProcedure procedure_;
  MergeContext ctx_;
  CostModel model_{2.0, 1.0, 1.0, 0.0};
};

TEST_F(IncrementalTest, StartsEmpty) {
  IncrementalMerger inc(&ctx_, model_);
  EXPECT_TRUE(inc.partition().empty());
  EXPECT_EQ(inc.cost(), 0.0);
}

TEST_F(IncrementalTest, FirstQueryBecomesSingleton) {
  const QueryId q = queries_.Add(Rect(0, 0, 2, 2));
  IncrementalMerger inc(&ctx_, model_);
  inc.AddQuery(q);
  EXPECT_EQ(inc.partition(), (Partition{{q}}));
  // Cost = K_M + K_T * 4.
  EXPECT_DOUBLE_EQ(inc.cost(), 2.0 + 4.0);
}

TEST_F(IncrementalTest, IdenticalQueryJoinsExistingGroup) {
  const QueryId a = queries_.Add(Rect(0, 0, 2, 2));
  const QueryId b = queries_.Add(Rect(0, 0, 2, 2));
  IncrementalMerger inc(&ctx_, model_);
  inc.AddQuery(a);
  inc.AddQuery(b);
  EXPECT_EQ(inc.partition(), (Partition{{a, b}}));
}

TEST_F(IncrementalTest, FarQueryStaysSeparate) {
  const QueryId a = queries_.Add(Rect(0, 0, 2, 2));
  const QueryId b = queries_.Add(Rect(500, 500, 502, 502));
  IncrementalMerger inc(&ctx_, model_);
  inc.AddQuery(a);
  inc.AddQuery(b);
  EXPECT_EQ(inc.partition().size(), 2u);
}

TEST_F(IncrementalTest, CostTracksPartitionCost) {
  Rng rng(3);
  QueryGenConfig config;
  config.num_queries = 12;
  IncrementalMerger inc(&ctx_, model_);
  for (const Rect& r : GenerateQueries(config, &rng)) {
    inc.AddQuery(queries_.Add(r));
    EXPECT_NEAR(inc.cost(), model_.PartitionCost(ctx_, inc.partition()),
                1e-9);
  }
}

TEST_F(IncrementalTest, RemoveQueryUpdatesCostAndPartition) {
  const QueryId a = queries_.Add(Rect(0, 0, 2, 2));
  const QueryId b = queries_.Add(Rect(0, 0, 2, 2));
  IncrementalMerger inc(&ctx_, model_);
  inc.AddQuery(a);
  inc.AddQuery(b);
  inc.RemoveQuery(a);
  EXPECT_EQ(inc.partition(), (Partition{{b}}));
  EXPECT_NEAR(inc.cost(), model_.PartitionCost(ctx_, inc.partition()), 1e-9);
}

TEST_F(IncrementalTest, RemoveLastQueryOfGroupDropsGroup) {
  const QueryId a = queries_.Add(Rect(0, 0, 2, 2));
  IncrementalMerger inc(&ctx_, model_);
  inc.AddQuery(a);
  inc.RemoveQuery(a);
  EXPECT_TRUE(inc.partition().empty());
  EXPECT_NEAR(inc.cost(), 0.0, 1e-9);
}

TEST_F(IncrementalTest, RemoveUnknownQueryIsNoOp) {
  const QueryId a = queries_.Add(Rect(0, 0, 2, 2));
  IncrementalMerger inc(&ctx_, model_);
  inc.AddQuery(a);
  const double before = inc.cost();
  inc.RemoveQuery(999);
  EXPECT_EQ(inc.cost(), before);
}

TEST_F(IncrementalTest, RepairNeverIncreasesCost) {
  Rng rng(7);
  QueryGenConfig config;
  config.num_queries = 15;
  IncrementalMerger inc(&ctx_, model_);
  for (const Rect& r : GenerateQueries(config, &rng)) {
    inc.AddQuery(queries_.Add(r));
  }
  const double before = inc.cost();
  const double after = inc.Repair();
  EXPECT_LE(after, before + 1e-9);
  EXPECT_NEAR(after, model_.PartitionCost(ctx_, inc.partition()), 1e-9);
  EXPECT_TRUE(IsValidPartition(inc.partition(), queries_.size()));
}

TEST_F(IncrementalTest, RepairRespectsMoveBudget) {
  Rng rng(8);
  QueryGenConfig config;
  config.num_queries = 10;
  // Scatter into deliberately bad singleton state by adding far-apart
  // first, then Repair with a budget of 1 move.
  IncrementalMerger inc(&ctx_, model_);
  for (const Rect& r : GenerateQueries(config, &rng)) {
    inc.AddQuery(queries_.Add(r));
  }
  IncrementalMerger clone(&ctx_, model_);
  for (QueryId q = 0; q < queries_.size(); ++q) clone.AddQuery(q);
  const double unlimited = inc.Repair(0);
  const double limited = clone.Repair(1);
  EXPECT_LE(unlimited, limited + 1e-9);
}

// RemoveQuery leaves the memo to its owner: the entries that mention a
// removed id stay until the owner evicts them (the live service does,
// once per batch), and one EvictGroupsContaining pass then drops
// exactly those.
TEST_F(IncrementalTest, RemoveQueryLeavesTheMemoAlone) {
  const QueryId a = queries_.Add(Rect(0, 0, 2, 2));
  const QueryId b = queries_.Add(Rect(0, 0, 2, 2));
  IncrementalMerger inc(&ctx_, model_);
  inc.AddQuery(a);
  inc.AddQuery(b);
  ASSERT_EQ(inc.partition(), (Partition{{a, b}}));
  // Memoize groups on both sides of the removal.
  ctx_.Stats(QueryGroup{a});
  ctx_.Stats(QueryGroup{b});
  ctx_.Stats(QueryGroup{a, b});
  const size_t cached_before = ctx_.cached_groups();
  ASSERT_GE(cached_before, 3u);
  inc.RemoveQuery(a);
  // The survivor {b} was already memoized, so the removal's regrouping
  // adds nothing, and nothing holding `a` left.
  EXPECT_EQ(ctx_.cached_groups(), cached_before);
  EXPECT_EQ(inc.partition(), (Partition{{b}}));
  EXPECT_NEAR(inc.cost(), model_.PartitionCost(ctx_, inc.partition()), 1e-9);
  // {a} and {a, b} are what the owner's eviction finds.
  EXPECT_EQ(ctx_.EvictGroupsContaining({a}), 2u);
  EXPECT_EQ(ctx_.cached_groups(), cached_before - 2);
}

TEST_F(IncrementalTest, AddRemoveRepairInterleaveKeepsPartitionExact) {
  // Regression for the removal path: interleaved Add/Remove/Repair must
  // leave a partition that covers exactly the live ids — no emptied
  // groups linger, no retired id survives, no id is double-planned.
  Rng rng(17);
  QueryGenConfig config;
  config.num_queries = 40;
  config.cf = 0.7;
  const std::vector<Rect> rects = GenerateQueries(config, &rng);

  IncrementalMerger inc(&ctx_, model_);
  std::vector<QueryId> live;
  for (size_t i = 0; i < rects.size(); ++i) {
    const QueryId id = queries_.Add(rects[i]);
    inc.AddQuery(id);
    live.push_back(id);
    // Every third step retires the oldest survivor; every fifth repairs.
    if (i % 3 == 2) {
      inc.RemoveQuery(live.front());
      live.erase(live.begin());
    }
    if (i % 5 == 4) inc.Repair(2);

    std::vector<QueryId> planned;
    for (const QueryGroup& group : inc.partition()) {
      ASSERT_FALSE(group.empty()) << "empty group after step " << i;
      planned.insert(planned.end(), group.begin(), group.end());
    }
    std::sort(planned.begin(), planned.end());
    ASSERT_EQ(planned, live) << "after step " << i;
    ASSERT_NEAR(inc.cost(), model_.PartitionCost(ctx_, inc.partition()),
                1e-9);
  }
}

TEST_F(IncrementalTest, PruningNeverChangesInterleavedDecisions) {
  // Decision identity (DESIGN.md §8 applied incrementally): the bounded
  // merger and the exhaustive reference must produce the same partition
  // after every step of the same Add/Remove/Repair sequence — the bounds
  // may only skip evaluations whose outcome is already decided.
  Rng rng(23);
  QueryGenConfig config;
  config.num_queries = 30;
  config.cf = 0.6;
  const std::vector<Rect> rects = GenerateQueries(config, &rng);
  for (const Rect& r : rects) queries_.Add(r);

  IncrementalMerger pruned(&ctx_, model_);
  reference::ExhaustiveIncrementalMerger plain(&ctx_, model_);
  for (QueryId id = 0; id < rects.size(); ++id) {
    pruned.AddQuery(id);
    plain.AddQuery(id);
    if (id % 4 == 3) {
      pruned.RemoveQuery(id - 2);
      plain.RemoveQuery(id - 2);
    }
    if (id % 6 == 5) {
      pruned.Repair(3);
      plain.Repair(3);
    }
    ASSERT_EQ(pruned.partition(), plain.partition()) << "after id " << id;
  }
  EXPECT_NEAR(pruned.cost(), plain.cost(), 1e-9);
  // The fast path must actually be fast: strictly fewer evaluations.
  EXPECT_LT(pruned.evaluations(), plain.evaluations());
}

/// Property (the Section 11 question): the incremental partition's cost
/// stays close to the from-scratch pair-merging cost as queries stream
/// in, and periodic Repair closes most of the gap.
class IncrementalQuality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalQuality, TracksFromScratchWithinFactor) {
  Rng rng(GetParam());
  QueryGenConfig config;
  config.num_queries = 20;
  config.cf = 0.7;
  QuerySet queries;
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  const CostModel model{2.0, 1.0, 1.0, 0.0};

  IncrementalMerger inc(&ctx, model);
  for (const Rect& r : GenerateQueries(config, &rng)) {
    inc.AddQuery(queries.Add(r));
  }
  inc.Repair();

  PairMerger scratch;
  auto baseline = scratch.Merge(ctx, model);
  ASSERT_TRUE(baseline.ok());
  // The repaired incremental solution is a local optimum of a superset of
  // pair merging's moves, so it should be competitive (within 10%).
  EXPECT_LE(inc.cost(), baseline->cost * 1.10 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalQuality,
                         ::testing::Range<uint64_t>(600, 612));

}  // namespace
}  // namespace qsp
