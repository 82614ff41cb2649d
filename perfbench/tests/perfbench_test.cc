// Tests of the benchmark's own code: percentile selection, failure
// counting, the timing decorators and the span recorder.

#include <gtest/gtest.h>

#include <vector>

#include "inputs.h"
#include "measure.h"
#include "merge/pair_merger.h"
#include "query/merge_context.h"
#include "relation/grid_index.h"
#include "stats/histogram_estimator.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(TailPercentile(Ramp(99), 0.9).has_value());
  ASSERT_TRUE(TailPercentile(Ramp(100), 0.9).has_value());
  EXPECT_EQ(*TailPercentile(Ramp(100), 0.9), 90.0);
  EXPECT_FALSE(TailPercentile(Ramp(19), 0.5).has_value());
  ASSERT_TRUE(TailPercentile(Ramp(21), 0.5).has_value());
  EXPECT_EQ(*TailPercentile(Ramp(21), 0.5), 11.0);
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
  EXPECT_FALSE(TailPercentile(Ramp(1000), 1.0).has_value());
}

TEST(Repetitions, DependOnlyOnTheWorkloadAndTheBudget) {
  for (const WorkloadSpec& spec : Workloads()) {
    EXPECT_EQ(Repetitions(spec, 0.1), spec.min_reps) << spec.name;
    EXPECT_GE(Repetitions(spec, 600.0), 600.0 / spec.rep_seconds - 1.0)
        << spec.name;
    // Enough rounds for a p90 at the minimum.
    const int rounds_per_rep = spec.live ? spec.ticks : spec.rounds;
    EXPECT_GE(spec.min_reps * rounds_per_rep, 100) << spec.name;
  }
}

TEST(SpreadEvenly, InsideTheStepsAndApart) {
  EXPECT_EQ(SpreadEvenly(6, 13), (std::vector<int>{1, 3, 5, 7, 9, 11}));
  EXPECT_EQ(SpreadEvenly(2, 36), (std::vector<int>{12, 24}));
  EXPECT_TRUE(SpreadEvenly(0, 10).empty());
}

TEST(Instances, DistinctDrawsAndOneRepeat) {
  // 8 repetitions: instances 0..6, then 0 again.
  std::vector<int> eight;
  for (int rep = 0; rep < 8; ++rep) eight.push_back(InstanceOf(rep, 8));
  EXPECT_EQ(eight, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 0}));
  EXPECT_EQ(InstanceOf(2, 3), 0);
  EXPECT_EQ(InstanceOf(1, 2), 1);
  EXPECT_EQ(InstanceSeed(7, 0), 7u);
  EXPECT_NE(InstanceSeed(7, 1), InstanceSeed(8, 0));
  EXPECT_NE(InstanceSeed(7, 1), InstanceSeed(7, 2));
}

TEST(Mean, AverageAndEmpty) {
  EXPECT_EQ(*Mean({1, 2, 6}), 3.0);
  EXPECT_FALSE(Mean({}).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(*Median({3, 1, 2}), 2.0);
  EXPECT_EQ(*Median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

TEST(FailureCount, CountsErrorsAndIncorrectAnswers) {
  qsp::RoundStats correct;
  correct.all_answers_correct = true;
  qsp::RoundStats wrong;
  wrong.all_answers_correct = false;
  FailureCount rounds;
  rounds.Record(RoundOk(qsp::Result<qsp::RoundStats>(correct)));
  rounds.Record(RoundOk(qsp::Result<qsp::RoundStats>(wrong)));
  rounds.Record(RoundOk(qsp::Result<qsp::RoundStats>(
      qsp::Status::FailedPrecondition("no plan"))));
  EXPECT_EQ(rounds.attempted, 3u);
  EXPECT_EQ(rounds.failed, 2u);
  EXPECT_DOUBLE_EQ(rounds.Ratio(), 2.0 / 3.0);
  EXPECT_EQ(FailureCount{}.Ratio(), 0.0);
}

// A decorator that forgets Floor(): the planner loses its distance
// pruning, which the MergeOutcome comparison below must notice.
class FloorlessEstimator : public TimedEstimator {
 public:
  using TimedEstimator::TimedEstimator;
  DensityFloor Floor() const override { return DensityFloor{}; }
};

struct Instance {
  qsp::Table table = IngestRows(GenerateRows(20000, 7));
  qsp::HistogramEstimator estimator{table, Domain(), 32, 32};
  qsp::QuerySet queries;
  Instance() {
    Rng rng(7, 2);
    for (const qsp::Rect& r :
         GenerateRects(QueryShape{0.2, 0.25, 0.01, 0.04}, 300, &rng)) {
      queries.Add(r);
    }
  }
};

qsp::MergeOutcome Plan(const qsp::QuerySet& queries,
                       const qsp::SizeEstimator& estimator,
                       const qsp::MergeProcedure& procedure) {
  const qsp::MergeContext ctx(&queries, &estimator, &procedure);
  const qsp::CostModel model{10.0 * 20000 / 1e6 / 0.0005, 9.0, 4.0, 0.0, 0.0};
  qsp::Result<qsp::MergeOutcome> outcome =
      qsp::PairMerger(/*use_heap=*/true, /*pruning=*/true).Merge(ctx, model);
  EXPECT_TRUE(outcome.ok());
  return outcome.value();
}

void ExpectSameOutcome(const qsp::MergeOutcome& a, const qsp::MergeOutcome& b) {
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.bounds_refined, b.bounds_refined);
  EXPECT_EQ(a.bounds_pruned, b.bounds_pruned);
}

TEST(Decorators, ForwardFloorRegionSizeAndTraits) {
  Instance inst;
  for (int kind = 0; kind < 2; ++kind) {
    const qsp::BoundingRectProcedure rect;
    const qsp::ExactCoverProcedure cover;
    const qsp::MergeProcedure& plain =
        kind == 0 ? static_cast<const qsp::MergeProcedure&>(rect) : cover;
    Tracer tracer;
    tracer.Begin("plan");
    const TimedEstimator estimator(&inst.estimator, &tracer);
    const TimedProcedure procedure(&plain, &tracer);
    EXPECT_EQ(estimator.Floor().density, inst.estimator.Floor().density);
    EXPECT_EQ(procedure.traits().covers_bounding_union,
              plain.traits().covers_bounding_union);
    EXPECT_EQ(procedure.traits().single_message, plain.traits().single_message);
    const std::vector<qsp::Rect> pieces = {qsp::Rect(0, 0, 100, 50),
                                           qsp::Rect(0, 50, 100, 100)};
    EXPECT_EQ(estimator.EstimateRegionSize(pieces),
              inst.estimator.EstimateRegionSize(pieces));

    ExpectSameOutcome(Plan(inst.queries, inst.estimator, plain),
                      Plan(inst.queries, estimator, procedure));
    EXPECT_GT(tracer.Subtree(0, CallLayer::kEstimator).calls, 0u);
    EXPECT_GT(tracer.Subtree(0, CallLayer::kProcedure).calls, 0u);
  }
}

TEST(Decorators, DroppedFloorChangesTheOutcome) {
  Instance inst;
  ASSERT_GT(inst.estimator.Floor().density, 0.0);
  const qsp::BoundingRectProcedure procedure;
  Tracer tracer;
  tracer.Begin("plan");
  const FloorlessEstimator floorless(&inst.estimator, &tracer);
  const qsp::MergeOutcome with_floor =
      Plan(inst.queries, inst.estimator, procedure);
  const qsp::MergeOutcome without = Plan(inst.queries, floorless, procedure);
  EXPECT_EQ(with_floor.partition, without.partition);
  EXPECT_NE(with_floor.bounds_pruned, without.bounds_pruned);
}

TEST(Decorators, IndexForwardsAndCountsRows) {
  Instance inst;
  const qsp::GridIndex grid(inst.table, Domain());
  Tracer tracer;
  tracer.Begin("round");
  const TimedIndex index(&grid, &tracer);
  const qsp::Rect rect(100, 100, 400, 300);
  const std::vector<qsp::RowId> rows = index.Query(rect);
  EXPECT_EQ(rows, grid.Query(rect));
  EXPECT_EQ(index.Count(rect), grid.Count(rect));
  const Tracer::CallTotals totals = tracer.Subtree(0, CallLayer::kIndex);
  EXPECT_EQ(totals.calls, 2u);
  EXPECT_EQ(totals.rows, rows.size());
}

TEST(Tracer, SubtreesAndProbes) {
  Tracer tracer;
  const int root = tracer.Begin("rep");
  const int plan = tracer.Begin("plan");
  tracer.AddCall(CallLayer::kEstimator, 5.0, 0);
  tracer.End(plan);
  const int probe = tracer.Begin("net.execute", /*probe=*/true);
  const int inner = tracer.Begin("inner");
  tracer.AddCall(CallLayer::kEstimator, 7.0, 0);
  tracer.End(inner);
  tracer.End(probe);
  tracer.AddCall(CallLayer::kIndex, 1.0, 3);
  tracer.End(root);
  EXPECT_EQ(tracer.Subtree(root, CallLayer::kEstimator).calls, 2u);
  EXPECT_DOUBLE_EQ(tracer.Subtree(root, CallLayer::kEstimator).us, 12.0);
  EXPECT_EQ(tracer.Subtree(plan, CallLayer::kEstimator).calls, 1u);
  EXPECT_EQ(tracer.OutsideProbes(CallLayer::kEstimator).calls, 1u);
  EXPECT_EQ(tracer.OutsideProbes(CallLayer::kIndex).rows, 3u);
  EXPECT_GE(tracer.spans()[static_cast<size_t>(root)].duration_us(), 0.0);
}

TEST(Inputs, SameSeedSameInputs) {
  const std::vector<RowInput> a = GenerateRows(1000, 3);
  const std::vector<RowInput> b = GenerateRows(1000, 3);
  const std::vector<RowInput> c = GenerateRows(1000, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
  EXPECT_NE(a[0].x, c[0].x);
}

}  // namespace
}  // namespace perfbench
