// Edge cases cutting across modules: empty inputs, singletons, and
// degenerate geometry that the main suites don't reach.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "channel/channel_cost.h"
#include "channel/hill_climb_allocator.h"
#include "cost/cost_model.h"
#include "geom/hull.h"
#include "geom/region.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/incremental_merger.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "query/predicate.h"
#include "relation/grid_index.h"
#include "stats/size_estimator.h"
#include "util/table_printer.h"

namespace qsp {
namespace {

struct EmptyInstance {
  QuerySet queries;
  UniformDensityEstimator estimator{1.0};
  BoundingRectProcedure procedure;
  MergeContext ctx{&queries, &estimator, &procedure};
  CostModel model{1, 1, 1, 0};
};

// ----------------------------------------------- Mergers on empty input

TEST(EdgeCases, AllMergersHandleZeroQueries) {
  EmptyInstance inst;
  PairMerger pair;
  PartitionMerger exact;
  DirectedSearchMerger directed(4, 1);
  ClusteringMerger clustering;
  for (const Merger* merger : std::initializer_list<const Merger*>{
           &pair, &exact, &directed, &clustering}) {
    auto outcome = merger->Merge(inst.ctx, inst.model);
    ASSERT_TRUE(outcome.ok()) << merger->name();
    EXPECT_TRUE(outcome->partition.empty()) << merger->name();
    EXPECT_EQ(outcome->cost, 0.0) << merger->name();
  }
}

TEST(EdgeCases, AllMergersHandleOneQuery) {
  QuerySet queries({Rect(0, 0, 5, 5)});
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  const CostModel model{1, 1, 1, 0};
  PairMerger pair;
  PartitionMerger exact;
  DirectedSearchMerger directed(4, 1);
  ClusteringMerger clustering;
  for (const Merger* merger : std::initializer_list<const Merger*>{
           &pair, &exact, &directed, &clustering}) {
    auto outcome = merger->Merge(ctx, model);
    ASSERT_TRUE(outcome.ok()) << merger->name();
    EXPECT_EQ(outcome->partition, Partition({{0}})) << merger->name();
  }
}

TEST(EdgeCases, IncrementalRepairOnEmptyStateIsNoOp) {
  EmptyInstance inst;
  IncrementalMerger incremental(&inst.ctx, inst.model);
  EXPECT_EQ(incremental.Repair(), 0.0);
  EXPECT_TRUE(incremental.partition().empty());
}

// ------------------------------------------------- Degenerate geometry

TEST(EdgeCases, ZeroAreaQueriesStillMergeable) {
  // Point queries (degenerate rects) have size 0 but remain valid.
  QuerySet queries({Rect(5, 5, 5, 5), Rect(5, 5, 5, 5)});
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  const CostModel model{1, 1, 1, 0};
  PairMerger merger;
  auto outcome = merger.Merge(ctx, model);
  ASSERT_TRUE(outcome.ok());
  // Identical zero-size queries merge (saves K_M, costs nothing).
  EXPECT_EQ(outcome->partition.size(), 1u);
}

TEST(EdgeCases, LineQueriesInExactCover) {
  // Width-zero rectangles produce zero-area pieces; the procedure must
  // still allocate every member somewhere.
  QuerySet queries({Rect(5, 0, 5, 10), Rect(0, 5, 10, 5)});
  ExactCoverProcedure procedure;
  const auto merged = procedure.Merge(queries, {0, 1});
  std::set<QueryId> served;
  for (const auto& m : merged) {
    served.insert(m.members.begin(), m.members.end());
  }
  EXPECT_EQ(served, (std::set<QueryId>{0, 1}));
}

TEST(EdgeCases, HullOfEmptyAndDegenerateInput) {
  EXPECT_TRUE(BoundingPolygon({}).IsEmpty());
  EXPECT_TRUE(BoundingPolygon({Rect::Empty()}).IsEmpty());
  auto line = BoundingPolygon({Rect(0, 0, 10, 0)});
  EXPECT_DOUBLE_EQ(line.Area(), 0.0);
}

TEST(EdgeCases, RegionOfZeroWidthRects) {
  auto region = RectilinearRegion::UnionOf({Rect(1, 0, 1, 5)});
  EXPECT_DOUBLE_EQ(region.Area(), 0.0);
  // Covers() treats zero-area rects as covered (nothing to miss).
  EXPECT_TRUE(region.Covers(Rect(1, 0, 1, 5)));
}

// --------------------------------------------------- Channel edge cases

TEST(EdgeCases, SingleClientAllocationIsTrivial) {
  QuerySet queries({Rect(0, 0, 5, 5)});
  ClientSet clients;
  clients.AddClient();
  clients.Subscribe(0, 0);
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  const CostModel model{1, 1, 1, 0};
  ChannelCostEvaluator evaluator(&ctx, model, &clients);
  HillClimbAllocator allocator(StartPolicy::kBestOfBoth, 1);
  auto outcome = allocator.Allocate(evaluator, 3);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->allocation.size(), 1u);
  EXPECT_EQ(outcome->allocation[0], (std::vector<ClientId>{0}));
}

TEST(EdgeCases, ClientWithNoSubscriptionsCostsNothingExtra) {
  QuerySet queries({Rect(0, 0, 5, 5)});
  ClientSet clients;
  clients.AddClient();
  clients.AddClient();  // Client 1 never subscribes.
  clients.Subscribe(0, 0);
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  const CostModel model{1, 1, 1, 0};
  ChannelCostEvaluator evaluator(&ctx, model, &clients);
  EXPECT_DOUBLE_EQ(evaluator.Cost({1}), 0.0);  // No queries, no cost.
  EXPECT_DOUBLE_EQ(evaluator.Cost({0, 1}), evaluator.Cost({0}));
}

// ------------------------------------------------------- Index edges

TEST(EdgeCases, GridIndexSingleCell) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({3.0, 3.0}).ok());
  GridIndex index(table, Rect(0, 0, 10, 10), 1, 1);
  EXPECT_EQ(index.Query(Rect(0, 0, 10, 10)).size(), 1u);
  EXPECT_EQ(index.Query(Rect(4, 4, 10, 10)).size(), 0u);
}

// ----------------------------------------------------- Predicate depth

TEST(EdgeCases, ModeratelyDeepPredicateNesting) {
  std::string text = "x <= 1";
  for (int i = 0; i < 50; ++i) text = "NOT (" + text + ")";
  auto parsed = ParsePredicate(text);
  ASSERT_TRUE(parsed.ok());
  Schema schema({{"x", ValueType::kDouble}, {"y", ValueType::kDouble}});
  auto bound = BoundPredicate::Bind(parsed.value(), schema);
  ASSERT_TRUE(bound.ok());
  // 50 negations = even count => equivalent to x <= 1.
  EXPECT_TRUE(bound->Matches({0.5, 0.0}));
  EXPECT_FALSE(bound->Matches({1.5, 0.0}));
}

// --------------------------------------------------------- Misc output

TEST(EdgeCases, TablePrinterWithNoRows) {
  TablePrinter printer({"a", "b"});
  EXPECT_NE(printer.ToText().find("a"), std::string::npos);
  EXPECT_EQ(printer.ToCsv(), "a,b\n");
}

TEST(EdgeCases, CostModelZeroConstantsAreHarmless) {
  QuerySet queries({Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)});
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  const CostModel model{0, 0, 0, 0};
  PairMerger merger;
  auto outcome = merger.Merge(ctx, model);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->cost, 0.0);
}

}  // namespace
}  // namespace qsp
