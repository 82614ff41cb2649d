#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "query/extractor.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "query/query.h"
#include "relation/generator.h"
#include "stats/size_estimator.h"
#include "util/rng.h"

namespace qsp {
namespace {

// -------------------------------------------------------------- QuerySet

TEST(QuerySetTest, AddAssignsDenseIds) {
  QuerySet qs;
  EXPECT_EQ(qs.Add(Rect(0, 0, 1, 1)), 0u);
  EXPECT_EQ(qs.Add(Rect(1, 1, 2, 2)), 1u);
  EXPECT_EQ(qs.size(), 2u);
  EXPECT_EQ(qs.rect(1), Rect(1, 1, 2, 2));
  EXPECT_EQ(qs.query(0).id, 0u);
}

TEST(QuerySetTest, ConstructFromRects) {
  QuerySet qs({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
  EXPECT_EQ(qs.size(), 2u);
  EXPECT_EQ(qs.AllIds(), (std::vector<QueryId>{0, 1}));
}

TEST(QuerySetTest, RectsOfGroup) {
  QuerySet qs({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3), Rect(4, 4, 5, 5)});
  const auto rects = qs.RectsOf({0, 2});
  ASSERT_EQ(rects.size(), 2u);
  EXPECT_EQ(rects[1], Rect(4, 4, 5, 5));
}

// ------------------------------------------------------ Group/Partition

TEST(GroupTest, CanonicalizeSortsAndDedupes) {
  QueryGroup g = {3, 1, 3, 2};
  CanonicalizeGroup(&g);
  EXPECT_EQ(g, (QueryGroup{1, 2, 3}));
}

TEST(GroupTest, UnionGroups) {
  EXPECT_EQ(UnionGroups({1, 3}, {2, 3, 5}), (QueryGroup{1, 2, 3, 5}));
  EXPECT_EQ(UnionGroups({}, {2}), (QueryGroup{2}));
}

TEST(GroupTest, ToString) {
  EXPECT_EQ(GroupToString({0, 3, 7}), "{0,3,7}");
  EXPECT_EQ(GroupToString({}), "{}");
}

TEST(PartitionTest, SingletonPartition) {
  const Partition p = SingletonPartition(3);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[2], (QueryGroup{2}));
  EXPECT_TRUE(IsValidPartition(p, 3));
}

TEST(PartitionTest, OneGroupPartition) {
  const Partition p = OneGroupPartition(3);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], (QueryGroup{0, 1, 2}));
  EXPECT_TRUE(IsValidPartition(p, 3));
}

TEST(PartitionTest, CanonicalizeDropsEmptiesAndSorts) {
  Partition p = {{2, 1}, {}, {0}};
  CanonicalizePartition(&p);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], (QueryGroup{0}));
  EXPECT_EQ(p[1], (QueryGroup{1, 2}));
}

TEST(PartitionTest, ValidityChecks) {
  EXPECT_TRUE(IsValidPartition({{0, 1}, {2}}, 3));
  EXPECT_FALSE(IsValidPartition({{0, 1}}, 3));          // Missing 2.
  EXPECT_FALSE(IsValidPartition({{0, 1}, {1, 2}}, 3));  // Duplicate 1.
  EXPECT_FALSE(IsValidPartition({{0, 5}}, 3));          // Out of range.
}

// ---------------------------------------------------------- MergeContext

TEST(MergeContextTest, SizeMatchesEstimator) {
  QuerySet qs({Rect(0, 0, 2, 2), Rect(0, 0, 4, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  EXPECT_DOUBLE_EQ(ctx.Size(0), 4.0);
  EXPECT_DOUBLE_EQ(ctx.Size(1), 4.0);
}

TEST(MergeContextTest, SingletonGroupStats) {
  QuerySet qs({Rect(0, 0, 2, 2)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const GroupStats& stats = ctx.Stats({0});
  EXPECT_DOUBLE_EQ(stats.messages, 1.0);
  EXPECT_DOUBLE_EQ(stats.size, 4.0);
  EXPECT_DOUBLE_EQ(stats.irrelevant, 0.0);
}

TEST(MergeContextTest, BoundingRectPairStats) {
  // q0 = [0,0..1,1] (S=1), q1 = [2,0..3,1] (S=1); bbox = [0,0..3,1] (S=3).
  QuerySet qs({Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const GroupStats& stats = ctx.Stats({0, 1});
  EXPECT_DOUBLE_EQ(stats.messages, 1.0);
  EXPECT_DOUBLE_EQ(stats.size, 3.0);
  // U = (R - S0) + (R - S1) = (3-1) + (3-1) = 4.
  EXPECT_DOUBLE_EQ(stats.irrelevant, 4.0);
}

TEST(MergeContextTest, StatsAreCached) {
  QuerySet qs({Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  ctx.Stats({0, 1});
  const size_t evaluated = ctx.groups_evaluated();
  ctx.Stats({0, 1});
  EXPECT_EQ(ctx.groups_evaluated(), evaluated);
}

TEST(MergeContextTest, UnionAndIntersectionSizes) {
  QuerySet qs({Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  EXPECT_DOUBLE_EQ(ctx.UnionSize(0, 1), 16 + 16 - 4);
  EXPECT_DOUBLE_EQ(ctx.IntersectionSize(0, 1), 4.0);
}

TEST(MergeContextTest, DisjointQueriesHaveZeroIntersection) {
  QuerySet qs({Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  EXPECT_DOUBLE_EQ(ctx.IntersectionSize(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(ctx.UnionSize(0, 1), 2.0);
}

TEST(MergeContextTest, ExactCoverHasNoIrrelevantData) {
  QuerySet qs({Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)});
  UniformDensityEstimator est(1.0);
  ExactCoverProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const GroupStats& stats = ctx.Stats({0, 1});
  EXPECT_NEAR(stats.irrelevant, 0.0, 1e-9);
  EXPECT_NEAR(stats.size, 28.0, 1e-9);  // Union area.
  EXPECT_GT(stats.messages, 1.0);       // Multiple pieces.
}

TEST(MergeContextTest, GrowsWithDynamicQuerySet) {
  QuerySet qs({Rect(0, 0, 1, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  EXPECT_DOUBLE_EQ(ctx.Size(0), 1.0);
  const QueryId id = qs.Add(Rect(0, 0, 2, 3));
  EXPECT_DOUBLE_EQ(ctx.Size(id), 6.0);
}

// ------------------------------------------------------------- Extractor

TEST(ExtractorTest, FiltersPayloadByRect) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({1.0, 1.0}).ok());
  ASSERT_TRUE(table.Insert({5.0, 5.0}).ok());
  ASSERT_TRUE(table.Insert({9.0, 9.0}).ok());
  const ExtractorSpec spec{0, Rect(0, 0, 6, 6)};
  size_t examined = 0;
  const auto out = ApplyExtractor(spec, {0, 1, 2}, table, &examined);
  EXPECT_EQ(out, (std::vector<RowId>{0, 1}));
  EXPECT_EQ(examined, 3u);
}

TEST(ExtractorTest, ExaminedCounterAccumulates) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({1.0, 1.0}).ok());
  const ExtractorSpec spec{0, Rect(0, 0, 6, 6)};
  size_t examined = 0;
  ApplyExtractor(spec, {0}, table, &examined);
  ApplyExtractor(spec, {0}, table, &examined);
  EXPECT_EQ(examined, 2u);
}

TEST(ExtractorTest, CombineAnswersDedupes) {
  const auto combined = CombineAnswers({{3, 1}, {1, 2}, {}});
  EXPECT_EQ(combined, (std::vector<RowId>{1, 2, 3}));
  // One part is sorted and deduplicated too, ascending or not.
  EXPECT_EQ(CombineAnswers({{3, 1, 3}}), (std::vector<RowId>{1, 3}));
  EXPECT_EQ(CombineAnswers({{1, 2, 2}}), (std::vector<RowId>{1, 2}));
}

/// Property (the correctness contract of Section 3.1): for any merge
/// procedure and any group, re-applying the original query to the merged
/// answer recovers exactly the original answer.
class ExtractionProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ExtractionProperty, ExtractorRecoversOriginalAnswer) {
  const int procedure_kind = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));

  TableGeneratorConfig tconfig;
  tconfig.domain = Rect(0, 0, 100, 100);
  tconfig.num_objects = 800;
  tconfig.payload_fields = 0;
  Table table = GenerateTable(tconfig, &rng);

  QuerySet qs;
  QueryGroup group;
  for (int i = 0; i < 5; ++i) {
    const double x = rng.UniformDouble(0, 70);
    const double y = rng.UniformDouble(0, 70);
    group.push_back(qs.Add(Rect(x, y, x + rng.UniformDouble(5, 30),
                                y + rng.UniformDouble(5, 30))));
  }

  const BoundingRectProcedure rect_proc;
  const BoundingPolygonProcedure poly_proc;
  const ExactCoverProcedure cover_proc;
  const MergeProcedure* proc =
      procedure_kind == 0
          ? static_cast<const MergeProcedure*>(&rect_proc)
          : procedure_kind == 1
                ? static_cast<const MergeProcedure*>(&poly_proc)
                : static_cast<const MergeProcedure*>(&cover_proc);

  // Evaluate every merged query, extract per member, combine.
  std::vector<std::vector<std::vector<RowId>>> parts(qs.size());
  for (const MergedQuery& merged : proc->Merge(qs, group)) {
    std::vector<RowId> payload;
    for (const Rect& piece : merged.region) {
      const auto rows = table.ScanRange(piece);
      payload.insert(payload.end(), rows.begin(), rows.end());
    }
    std::sort(payload.begin(), payload.end());
    payload.erase(std::unique(payload.begin(), payload.end()),
                  payload.end());
    for (QueryId member : merged.members) {
      parts[member].push_back(
          ApplyExtractor({member, qs.rect(member)}, payload, table));
    }
  }
  for (QueryId q : group) {
    EXPECT_EQ(CombineAnswers(parts[q]), table.ScanRange(qs.rect(q)))
        << proc->name() << " failed for query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProceduresAndSeeds, ExtractionProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(101, 202, 303, 404)));

}  // namespace
}  // namespace qsp
