// Group evaluation in MergeContext (query/merge_context.h): the two memo
// policies and the two evaluation paths must agree bit for bit. An
// evaluate-only context returns the GroupStats a storing context returns,
// and the bounding-box path of Compute() returns what the procedure path
// returns for BoundingRectProcedure's output, over seeded random query
// sets with empty, duplicate and domain-straddling rectangles, for every
// merge procedure and the uniform, histogram and exact estimators. Every
// double is compared with EXPECT_EQ: the planners' decisions, the goldens
// and the benchmark digests depend on exact equality, not closeness.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "exec/thread_pool.h"
#include "merge/pair_merger.h"
#include "obs/metrics.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "relation/generator.h"
#include "relation/grid_index.h"
#include "stats/equi_depth_estimator.h"
#include "stats/exact_estimator.h"
#include "stats/histogram_estimator.h"
#include "stats/sampling_estimator.h"
#include "stats/size_estimator.h"
#include "util/rng.h"

namespace qsp {
namespace {

const Rect kDomain(0, 0, 1000, 1000);
constexpr uint64_t kSeeds[] = {3, 11, 29};

/// BoundingRectProcedure's output without its region_is_bounding_box
/// trait, so a context over it takes the procedure path.
class ProcedurePathBoundingRect : public MergeProcedure {
 public:
  ProcedureTraits traits() const override {
    ProcedureTraits traits = inner_.traits();
    traits.region_is_bounding_box = false;
    return traits;
  }
  std::vector<MergedQuery> Merge(const QuerySet& queries,
                                 const QueryGroup& group) const override {
    return inner_.Merge(queries, group);
  }
  std::string name() const override { return inner_.name(); }

 private:
  BoundingRectProcedure inner_;
};

/// Counts Merge() calls and forwards everything, traits() included, the
/// way a timing decorator does.
class CountingProcedure : public MergeProcedure {
 public:
  explicit CountingProcedure(const MergeProcedure* inner) : inner_(inner) {}
  ProcedureTraits traits() const override { return inner_->traits(); }
  std::vector<MergedQuery> Merge(const QuerySet& queries,
                                 const QueryGroup& group) const override {
    ++calls;
    return inner_->Merge(queries, group);
  }
  std::string name() const override { return inner_->name(); }

  mutable size_t calls = 0;

 private:
  const MergeProcedure* inner_;
};

/// Random rectangles over kDomain: most inside it, some straddling its
/// edge (so the histogram clips), some empty, some duplicated.
std::vector<Rect> RandomRects(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Rect> rects;
  while (rects.size() < n) {
    const double kind = rng.UniformDouble(0.0, 1.0);
    if (kind < 0.1) {
      rects.push_back(Rect::Empty());
    } else if (kind < 0.2 && !rects.empty()) {
      rects.push_back(rects[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rects.size()) - 1))]);
    } else {
      // Centers reach 60 past each domain edge, so a few rects straddle it.
      const double cx = rng.UniformDouble(-60.0, 1060.0);
      const double cy = rng.UniformDouble(-60.0, 1060.0);
      const double w = rng.UniformDouble(0.0, 120.0);
      const double h = rng.UniformDouble(0.0, 120.0);
      rects.push_back(Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2));
    }
  }
  return rects;
}

/// Random canonical groups of 2–6 members, plus one group of every
/// empty rect and the group of all queries.
std::vector<QueryGroup> RandomGroups(uint64_t seed, const QuerySet& queries) {
  Rng rng(seed ^ 0x5bd1e995ULL);
  std::vector<QueryGroup> groups;
  for (int g = 0; g < 60; ++g) {
    const int64_t size = rng.UniformInt(2, 6);
    QueryGroup group;
    for (int64_t k = 0; k < size; ++k) {
      group.push_back(static_cast<QueryId>(
          rng.UniformInt(0, static_cast<int64_t>(queries.size()) - 1)));
    }
    CanonicalizeGroup(&group);
    groups.push_back(std::move(group));
  }
  QueryGroup empties;
  for (QueryId id = 0; id < queries.size(); ++id) {
    if (queries.rect(id).IsEmpty()) empties.push_back(id);
  }
  if (empties.size() >= 2) groups.push_back(empties);
  groups.push_back(queries.AllIds());
  return groups;
}

/// A half-clustered table over kDomain, so the histogram is not uniform.
Table MakeTable(uint64_t seed) {
  Rng rng(seed);
  TableGeneratorConfig config;
  config.domain = kDomain;
  config.num_objects = 4000;
  config.clustered_fraction = 0.5;
  return GenerateTable(config, &rng);
}

/// The object table, index and the estimators of one seed.
struct Estimators {
  Table table;
  GridIndex index;
  std::vector<std::pair<std::string, std::unique_ptr<SizeEstimator>>> all;

  explicit Estimators(uint64_t seed)
      : table(MakeTable(seed)), index(table, kDomain, 16, 16) {
    all.emplace_back("uniform",
                     std::make_unique<UniformDensityEstimator>(0.004));
    all.emplace_back("histogram", std::make_unique<HistogramEstimator>(
                                      table, kDomain, 12, 12));
    all.emplace_back("exact", std::make_unique<ExactEstimator>(&index));
  }
};

void ExpectSameStats(const GroupStats& a, const GroupStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.size, b.size) << where;
  EXPECT_EQ(a.irrelevant, b.irrelevant) << where;
}

TEST(GroupEvaluationTest, EvaluateOnlyMatchesStoringContext) {
  const BoundingRectProcedure rect;
  const BoundingPolygonProcedure polygon;
  const ExactCoverProcedure cover;
  const MergeProcedure* procedures[] = {&rect, &polygon, &cover};
  for (const uint64_t seed : kSeeds) {
    const Estimators estimators(seed);
    const QuerySet queries(RandomRects(seed, 40));
    const std::vector<QueryGroup> groups = RandomGroups(seed, queries);
    for (const auto& [estimator_name, estimator] : estimators.all) {
      for (const MergeProcedure* procedure : procedures) {
        const MergeContext stored(&queries, estimator.get(), procedure);
        const MergeContext computed(&queries, estimator.get(), procedure,
                                    GroupMemo::kEvaluateOnly);
        for (const QueryGroup& group : groups) {
          const std::string where = "seed " + std::to_string(seed) + " " +
                                    estimator_name + " " + procedure->name() +
                                    " " + GroupToString(group);
          // Twice each: the second storing lookup is a memo hit.
          for (int pass = 0; pass < 2; ++pass) {
            ExpectSameStats(computed.Stats(group), stored.Stats(group),
                            where);
          }
        }
      }
    }
  }
}

TEST(GroupEvaluationTest, BoundingBoxPathMatchesProcedurePath) {
  const BoundingRectProcedure fast;
  const ProcedurePathBoundingRect slow;
  ASSERT_TRUE(fast.traits().region_is_bounding_box);
  ASSERT_FALSE(slow.traits().region_is_bounding_box);
  for (const uint64_t seed : kSeeds) {
    const Estimators estimators(seed);
    const QuerySet queries(RandomRects(seed, 40));
    const std::vector<QueryGroup> groups = RandomGroups(seed, queries);
    for (const auto& [estimator_name, estimator] : estimators.all) {
      for (const GroupMemo memo :
           {GroupMemo::kStore, GroupMemo::kEvaluateOnly}) {
        const MergeContext box_path(&queries, estimator.get(), &fast, memo);
        const MergeContext procedure_path(&queries, estimator.get(), &slow,
                                          memo);
        for (const QueryGroup& group : groups) {
          ExpectSameStats(box_path.Stats(group), procedure_path.Stats(group),
                          "seed " + std::to_string(seed) + " " +
                              estimator_name + " " + GroupToString(group));
        }
      }
    }
  }
}

TEST(GroupEvaluationTest, EmptyAndDuplicateMembersMatchAcrossPaths) {
  // Two empty rects, two copies of one rect, and a rect straddling the
  // histogram domain's corner.
  const QuerySet queries({Rect::Empty(), Rect::Empty(), Rect(10, 10, 60, 40),
                          Rect(10, 10, 60, 40), Rect(-30, 970, 40, 1030)});
  const Estimators estimators(7);
  const BoundingRectProcedure fast;
  const ProcedurePathBoundingRect slow;
  const std::vector<QueryGroup> groups = {
      {0, 1}, {0, 2}, {2, 3}, {0, 2, 3}, {3, 4}, {0, 1, 2, 3, 4}};
  for (const auto& [estimator_name, estimator] : estimators.all) {
    const MergeContext box_path(&queries, estimator.get(), &fast,
                                GroupMemo::kEvaluateOnly);
    const MergeContext procedure_path(&queries, estimator.get(), &slow);
    for (const QueryGroup& group : groups) {
      ExpectSameStats(box_path.Stats(group), procedure_path.Stats(group),
                      estimator_name + " " + GroupToString(group));
    }
    // A group of empty rects is one message with no region.
    const GroupStats empty = box_path.Stats({0, 1});
    EXPECT_EQ(empty.messages, 1.0);
    EXPECT_EQ(empty.size, 0.0);
    EXPECT_EQ(empty.irrelevant, 0.0);
  }
}

TEST(GroupEvaluationTest, ForwardedTraitsSkipTheProcedure) {
  // A decorator that forwards traits() keeps the bounding-box path even
  // though it is not a BoundingRectProcedure; without the trait every
  // multi-member group calls Merge().
  const QuerySet queries(RandomRects(5, 20));
  const UniformDensityEstimator estimator(0.004);
  const BoundingRectProcedure rect;
  const ProcedurePathBoundingRect slow;
  const CountingProcedure forwarded(&rect);
  const CountingProcedure counted_slow(&slow);
  const MergeContext fast_ctx(&queries, &estimator, &forwarded,
                              GroupMemo::kEvaluateOnly);
  const MergeContext slow_ctx(&queries, &estimator, &counted_slow,
                              GroupMemo::kEvaluateOnly);
  const std::vector<QueryGroup> groups = RandomGroups(5, queries);
  for (const QueryGroup& group : groups) {
    ExpectSameStats(fast_ctx.Stats(group), slow_ctx.Stats(group),
                    GroupToString(group));
  }
  EXPECT_EQ(forwarded.calls, 0u);
  EXPECT_EQ(counted_slow.calls, groups.size());
  // Merged() still asks the procedure: the server needs its output.
  EXPECT_EQ(fast_ctx.Merged(groups.front()).size(), 1u);
  EXPECT_EQ(forwarded.calls, 1u);
}

TEST(GroupEvaluationTest, OnePieceRegionSizeIsThePieceSize) {
  // The bounding-box path sizes its region with EstimateSize(box), which
  // equals EstimateRegionSize({box}) only because no estimator overrides
  // the base sum. Pin that for every estimator in src/stats.
  const Estimators estimators(13);
  std::vector<std::pair<std::string, std::unique_ptr<SizeEstimator>>> all;
  all.emplace_back("equi-depth",
                   std::make_unique<EquiDepthEstimator>(estimators.table, 16));
  all.emplace_back("sampling", std::make_unique<SamplingEstimator>(
                                   estimators.table, 0.25, 13));
  std::vector<const SizeEstimator*> every;
  for (const auto& entry : estimators.all) every.push_back(entry.second.get());
  for (const auto& entry : all) every.push_back(entry.second.get());
  ASSERT_EQ(every.size(), 5u);
  const std::vector<Rect> boxes = RandomRects(13, 200);
  for (const SizeEstimator* estimator : every) {
    EXPECT_EQ(estimator->EstimateRegionSize({}), 0.0);
    for (const Rect& box : boxes) {
      if (box.IsEmpty()) continue;
      EXPECT_EQ(estimator->EstimateRegionSize({box}),
                estimator->EstimateSize(box))
          << box.ToString();
    }
  }
}

TEST(GroupEvaluationTest, EvaluateOnlyContextCountsEveryComputation) {
  const QuerySet queries(RandomRects(17, 30));
  const UniformDensityEstimator estimator(0.004);
  const BoundingRectProcedure procedure;
  const MergeContext ctx(&queries, &estimator, &procedure,
                         GroupMemo::kEvaluateOnly);
  EXPECT_EQ(ctx.groups_evaluated(), 0u);
  size_t previous = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const QueryGroup& group : {QueryGroup{1}, QueryGroup{0, 1},
                                    QueryGroup{2, 5, 9}}) {
      ctx.Stats(group);
      // Every lookup computes, so every lookup counts, repeats included.
      EXPECT_EQ(ctx.groups_evaluated(), previous + 1);
      previous = ctx.groups_evaluated();
    }
  }
  EXPECT_EQ(ctx.groups_evaluated(), 9u);
  EXPECT_EQ(ctx.cached_groups(), 0u);
  EXPECT_EQ(ctx.group_arena_bytes(), 0u);
  EXPECT_EQ(ctx.EvictGroupsContaining({0, 1, 2}), 0u);
  EXPECT_EQ(ctx.groups_evaluated(), 9u);  // monotone across evictions

  // The storing context counts each distinct group once.
  const MergeContext stored(&queries, &estimator, &procedure);
  for (int pass = 0; pass < 3; ++pass) stored.Stats({0, 1});
  EXPECT_EQ(stored.groups_evaluated(), 1u);
  EXPECT_EQ(stored.cached_groups(), 1u);
  EXPECT_GT(stored.group_arena_bytes(), 0u);
}

TEST(GroupEvaluationTest, MergerGroupEvalsCountEvaluateOnlyWork) {
  // merge.<name>.group_evals reads groups_evaluated(), so on an
  // evaluate-only context it counts every computation of the run. Pair
  // merging computes each group once (a merge reuses its refinement's
  // statistics, the outcome's cost sums cached costs), so that equals
  // the distinct groups a storing context memoizes, same plan.
  const QuerySet queries(RandomRects(23, 60));
  const UniformDensityEstimator estimator(0.004);
  const BoundingRectProcedure procedure;
  const CostModel model{10.0, 1.0, 0.5, 0.0};
  const PairMerger merger;
  EXPECT_EQ(merger.ContextMemo(), GroupMemo::kEvaluateOnly);

  obs::SetEnabled(true);
  auto& registry = obs::MetricRegistry::Default();
  registry.Reset();
  const MergeContext computed(&queries, &estimator, &procedure,
                              GroupMemo::kEvaluateOnly);
  const Result<MergeOutcome> a = merger.Merge(computed, model);
  const uint64_t computed_evals =
      registry.CounterValue("merge.pair-merging.group_evals");
  registry.Reset();
  const MergeContext stored(&queries, &estimator, &procedure);
  const Result<MergeOutcome> b = merger.Merge(stored, model);
  const uint64_t stored_evals =
      registry.CounterValue("merge.pair-merging.group_evals");
  registry.Reset();
  obs::SetEnabled(false);

  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->partition, b->partition);
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_EQ(computed_evals, computed.groups_evaluated());
  EXPECT_EQ(stored_evals, stored.groups_evaluated());
  EXPECT_EQ(computed_evals, stored_evals);
}

// ------------------------------------------------------------ size memo

/// Sets the default pool's size for one test and restores the serial
/// pool when it ends.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { exec::SetDefaultThreads(n); }
  ~ScopedThreads() { exec::SetDefaultThreads(1); }
};

TEST(SizeMemoTest, ConcurrentLookupsAgreeWhileTheQuerySetGrows) {
  // Size() reads a known size without a lock. Pool workers look up sizes
  // and group statistics on one storing context while the query set
  // grows between parallel regions, across four chunks of size slots
  // (ids 0–63, 64–191, 192–447, 448–959), and then shrinks; every value
  // must equal the estimator's own and a fresh serial context's, bit for
  // bit.
  const std::vector<Rect> rects = RandomRects(31, 600);
  QuerySet queries(std::vector<Rect>(rects.begin(), rects.begin() + 5));
  const UniformDensityEstimator estimator(0.004);
  const BoundingRectProcedure procedure;
  const MergeContext ctx(&queries, &estimator, &procedure);
  const ScopedThreads threads(4);
  auto check_region = [&](size_t salt) {
    const size_t n = queries.size();
    std::vector<double> sizes(4 * n);
    std::vector<GroupStats> stats(n);
    // Four lookups of every id, in an order that differs per region, and
    // one pair group per id.
    auto id_of = [&](size_t k) {
      return static_cast<QueryId>((k * 7 + salt) % n);
    };
    auto pair_of = [n](size_t k) {
      return QueryGroup{static_cast<QueryId>(std::min(k, (k + 1) % n)),
                        static_cast<QueryId>(std::max(k, (k + 1) % n))};
    };
    exec::ParallelFor(4 * n, [&](size_t k) {
      sizes[k] = ctx.Size(id_of(k));
      if (k < n) stats[k] = ctx.Stats(pair_of(k));
    });
    const MergeContext serial(&queries, &estimator, &procedure);
    for (size_t k = 0; k < 4 * n; ++k) {
      ASSERT_EQ(sizes[k], estimator.EstimateSize(queries.rect(id_of(k))))
          << "n " << n << " id " << id_of(k);
    }
    for (size_t k = 0; k < n; ++k) {
      const GroupStats expected = serial.Stats(pair_of(k));
      ASSERT_EQ(stats[k].messages, expected.messages) << "n " << n;
      ASSERT_EQ(stats[k].size, expected.size) << "n " << n;
      ASSERT_EQ(stats[k].irrelevant, expected.irrelevant) << "n " << n;
    }
  };
  size_t added = 5;
  for (const size_t target : {9, 40, 41, 170, 600}) {
    while (added < target) queries.Add(rects[added++]);
    check_region(target);
  }
  // A shrink reassigns ids: the context must forget every size.
  queries = QuerySet(std::vector<Rect>(rects.rbegin(), rects.rbegin() + 7));
  check_region(1);
  queries.Add(rects[0]);
  check_region(2);
}

TEST(SizeMemoTest, HitsPlusMissesCountEveryCall) {
  // ctx.size_cache.hits + misses equals the number of Size() calls, and
  // each id misses once however many workers race on it, through the
  // lock-free hits, the locked misses and the growths between regions.
  const std::vector<Rect> rects = RandomRects(37, 300);
  QuerySet queries(std::vector<Rect>(rects.begin(), rects.begin() + 3));
  const UniformDensityEstimator estimator(0.004);
  const BoundingRectProcedure procedure;
  obs::SetEnabled(true);
  auto& registry = obs::MetricRegistry::Default();
  registry.Reset();
  const MergeContext ctx(&queries, &estimator, &procedure);
  uint64_t calls = 0;
  {
    const ScopedThreads threads(4);
    size_t added = 3;
    for (const size_t target : {3, 4, 50, 51, 300}) {
      while (added < target) queries.Add(rects[added++]);
      const size_t n = queries.size();
      exec::ParallelFor(3 * n, [&](size_t k) {
        ctx.Size(static_cast<QueryId>(k % n));
      });
      calls += 3 * n;
    }
  }
  const uint64_t hits = registry.CounterValue("ctx.size_cache.hits");
  const uint64_t misses = registry.CounterValue("ctx.size_cache.misses");
  registry.Reset();
  obs::SetEnabled(false);
  EXPECT_EQ(hits + misses, calls);
  EXPECT_EQ(misses, queries.size());
}

}  // namespace
}  // namespace qsp
