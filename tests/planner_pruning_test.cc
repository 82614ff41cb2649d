// Planner pruning golden tests (DESIGN.md §8): the spatial candidate
// index and the admissible benefit bounds are pure accelerations — with
// pruning on, every heuristic merger must return the exact partition and
// cost of an independent exhaustive reference (the Profit Table for pair
// merging, tests/merge_reference.h for directed search and incremental
// merging), for every merge procedure, estimator, and seed. The bounds
// themselves are checked as properties: UpperBound never falls below the
// exact MergeBenefit, and the partner query never drops a group that
// carries a positive bound, on hand-made and on random groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "channel/channel_cost.h"
#include "channel/client_set.h"
#include "cost/cost_model.h"
#include "geom/region.h"
#include "geom/spatial_grid.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/incremental_merger.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"
#include "merge/plan_bounds.h"
#include "obs/metrics.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "relation/generator.h"
#include "stats/histogram_estimator.h"
#include "stats/size_estimator.h"
#include "tests/merge_reference.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

constexpr uint64_t kSeeds[] = {11, 22, 33};

// A merging instance with selectable procedure and estimator (the bench
// Instance hardcodes uniform + bounding-rect; the pruning identity must
// hold for every combination).
struct Instance {
  QuerySet queries;
  std::optional<Table> table;
  std::unique_ptr<SizeEstimator> estimator;
  std::unique_ptr<MergeProcedure> procedure;
  std::unique_ptr<MergeContext> ctx;

  Instance(size_t n, uint64_t seed, const std::string& procedure_name,
           const std::string& estimator_name) {
    const QueryGenConfig config = bench::Fig16WorkloadConfig(n);
    Rng rng(seed);
    queries = QuerySet(GenerateQueries(config, &rng));
    if (procedure_name == "bounding-rect") {
      procedure = std::make_unique<BoundingRectProcedure>();
    } else if (procedure_name == "bounding-polygon") {
      procedure = std::make_unique<BoundingPolygonProcedure>();
    } else {
      procedure = std::make_unique<ExactCoverProcedure>();
    }
    if (estimator_name == "uniform") {
      estimator =
          std::make_unique<UniformDensityEstimator>(bench::kFig16Density);
    } else {
      TableGeneratorConfig tconfig;
      tconfig.domain = config.domain;
      tconfig.num_objects = 2000;
      tconfig.clustered_fraction = 0.6;
      Rng trng(seed + 1);
      table = GenerateTable(tconfig, &trng);
      estimator = std::make_unique<HistogramEstimator>(*table, config.domain,
                                                       16, 16);
    }
    ctx = std::make_unique<MergeContext>(&queries, estimator.get(),
                                         procedure.get());
  }
};

struct MergerCase {
  std::string name;
  std::unique_ptr<Merger> (*make)(uint64_t seed, bool pruning);
  /// The exhaustive reference; null = make(seed, /*pruning=*/false).
  std::unique_ptr<Merger> (*reference)(uint64_t seed) = nullptr;
};

const MergerCase kMergers[] = {
    {"pair-heap",
     [](uint64_t, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<PairMerger>(/*use_heap=*/true, pruning);
     },
     // The paper's Profit Table evaluates every pair exactly.
     [](uint64_t) -> std::unique_ptr<Merger> {
       return std::make_unique<PairMerger>(/*use_heap=*/false);
     }},
    {"clustering",
     [](uint64_t, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<ClusteringMerger>(pruning);
     }},
    {"directed-search",
     [](uint64_t seed, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<DirectedSearchMerger>(4, seed, pruning);
     }},
};

// The tentpole identity: pruning may only change planning effort, never
// the plan. Partition and cost must match bit-for-bit across every
// merger x procedure x estimator x seed cell.
TEST(PlannerPruningTest, PrunedPlanMatchesExhaustivePlan) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    for (const std::string& procedure :
         {std::string("bounding-rect"), std::string("bounding-polygon"),
          std::string("exact-cover")}) {
      for (const std::string& estimator :
           {std::string("uniform"), std::string("histogram")}) {
        for (const uint64_t seed : kSeeds) {
          const std::string label = mc.name + "/" + procedure + "/" +
                                    estimator + "/seed" +
                                    std::to_string(seed);
          Instance exhaustive_inst(30, seed, procedure, estimator);
          auto exhaustive = (mc.reference != nullptr
                                 ? mc.reference(seed)
                                 : mc.make(seed, /*pruning=*/false))
                                ->Merge(*exhaustive_inst.ctx, model);
          ASSERT_TRUE(exhaustive.ok()) << label;

          Instance pruned_inst(30, seed, procedure, estimator);
          auto pruned =
              mc.make(seed, /*pruning=*/true)->Merge(*pruned_inst.ctx, model);
          ASSERT_TRUE(pruned.ok()) << label;

          EXPECT_EQ(pruned->partition, exhaustive->partition) << label;
          EXPECT_EQ(pruned->cost, exhaustive->cost) << label;
        }
      }
    }
  }
}

// A cost model with a negative coefficient invalidates the bounds, so
// the bounder must prune nothing even with pruning requested: the pair
// heap refines every pair, and its plan and effort equal the Profit
// Table's; directed search and the incremental merger make their
// exhaustive references' decisions without pruning a candidate.
TEST(PlannerPruningTest, NegativeCoefficientModelPrunesNothing) {
  CostModel model = bench::Fig16CostModel();
  model.k_u = -1.0;
  ASSERT_FALSE(model.SupportsBenefitBounds());
  for (const uint64_t seed : kSeeds) {
    Instance a(20, seed, "bounding-rect", "uniform");
    Instance b(20, seed, "bounding-rect", "uniform");
    const plan::BenefitBounder bounder(*b.ctx, model);
    EXPECT_FALSE(bounder.enabled());
    auto table = PairMerger(/*use_heap=*/false).Merge(*a.ctx, model);
    auto on =
        PairMerger(/*use_heap=*/true, /*pruning=*/true).Merge(*b.ctx, model);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(on.ok());
    EXPECT_EQ(on->partition, table->partition) << "seed " << seed;
    EXPECT_EQ(on->cost, table->cost) << "seed " << seed;
    // Nothing is pruned, so even the effort metric matches.
    EXPECT_EQ(on->candidates, table->candidates) << "seed " << seed;
    EXPECT_EQ(on->bounds_refined, on->candidates) << "seed " << seed;
    EXPECT_EQ(on->bounds_pruned, 0u) << "seed " << seed;

    Partition descent = SingletonPartition(a.queries.size());
    reference::ExhaustiveDescent(*a.ctx, model, &descent);
    CanonicalizePartition(&descent);
    auto directed =
        DirectedSearchMerger(/*restarts=*/1, seed).Merge(*b.ctx, model);
    ASSERT_TRUE(directed.ok());
    EXPECT_EQ(directed->partition, descent) << "seed " << seed;
    EXPECT_EQ(directed->bounds_pruned, 0u) << "seed " << seed;

    reference::ExhaustiveIncrementalMerger plain(a.ctx.get(), model);
    IncrementalMerger incremental(b.ctx.get(), model);
    for (QueryId id = 0; id < a.queries.size(); ++id) {
      plain.AddQuery(id);
      incremental.AddQuery(id);
      if (id % 5 == 4) {
        plain.RemoveQuery(id - 3);
        incremental.RemoveQuery(id - 3);
      }
      if (id % 8 == 7) {
        plain.Repair(3);
        incremental.Repair(3);
      }
      ASSERT_EQ(incremental.partition(), plain.partition())
          << "seed " << seed << " after id " << id;
    }
    EXPECT_EQ(incremental.bounds_pruned(), 0u) << "seed " << seed;
  }
}

// Random disjoint groups drawn from a random partition of 0..n-1.
std::vector<QueryGroup> RandomGroups(size_t n, size_t blocks, Rng* rng) {
  std::vector<QueryGroup> groups(blocks);
  for (size_t i = 0; i < n; ++i) {
    groups[static_cast<size_t>(
               rng->UniformInt(0, static_cast<int64_t>(blocks) - 1))]
        .push_back(static_cast<QueryId>(i));
  }
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const QueryGroup& g) { return g.empty(); }),
               groups.end());
  return groups;
}

// Admissibility: UpperBound(a, b) >= MergeBenefit(a, b) for random
// disjoint groups, and every ExtractBound >= the exact benefit of
// extracting that member into a singleton, under every
// procedure/estimator combination whose traits the bounder exploits
// differently.
TEST(PlannerPruningTest, UpperBoundNeverBelowExactBenefit) {
  const CostModel model = bench::Fig16CostModel();
  for (const std::string& procedure :
       {std::string("bounding-rect"), std::string("bounding-polygon"),
        std::string("exact-cover")}) {
    for (const std::string& estimator :
         {std::string("uniform"), std::string("histogram")}) {
      for (const uint64_t seed : kSeeds) {
        Instance inst(40, seed, procedure, estimator);
        const plan::BenefitBounder bounder(*inst.ctx, model);
        ASSERT_TRUE(bounder.enabled());
        Rng rng(seed * 7 + 1);
        const std::vector<QueryGroup> groups = RandomGroups(40, 12, &rng);
        std::vector<plan::GroupSummary> sums;
        sums.reserve(groups.size());
        for (const QueryGroup& g : groups) sums.push_back(bounder.Summarize(g));
        for (size_t i = 0; i < groups.size(); ++i) {
          for (size_t j = i + 1; j < groups.size(); ++j) {
            const double exact =
                model.MergeBenefit(*inst.ctx, groups[i], groups[j]);
            const double bound = bounder.UpperBound(sums[i], sums[j]);
            EXPECT_GE(bound, exact)
                << procedure << "/" << estimator << " seed " << seed
                << " pair " << GroupToString(groups[i]) << " + "
                << GroupToString(groups[j]);
          }
          if (groups[i].size() < 2) continue;
          const auto extract = bounder.ExtractBoundFor(groups[i], sums[i].cost);
          for (QueryId q : groups[i]) {
            QueryGroup rest;
            for (QueryId other : groups[i]) {
              if (other != q) rest.push_back(other);
            }
            const double q_cost = model.GroupCost(*inst.ctx, {q});
            const double exact = sums[i].cost -
                                 model.GroupCost(*inst.ctx, rest) - q_cost;
            EXPECT_GE(extract(inst.ctx->Size(q), q_cost), exact)
                << procedure << "/" << estimator << " seed " << seed
                << " extract " << q << " from " << GroupToString(groups[i]);
          }
        }
      }
    }
  }
}

// A dense clustered population: ten near-duplicate rectangles around
// each of twelve centres in [0, 1000]^2, plus zero-width, zero-height and
// empty boxes and two clusters outside the domain. Under a uniform
// density of 0.5 a partner more than about one box width away can never
// pay for the empty space a merge would cover, so the partner query has
// most cells to reject, while cluster mates still merge.
std::vector<Rect> DenseRects(uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> rects;
  auto cluster = [&](double cx, double cy) {
    for (int k = 0; k < 10; ++k) {
      const double x = cx + rng.UniformDouble(-6, 6);
      const double y = cy + rng.UniformDouble(-6, 6);
      rects.push_back(Rect(x, y, x + rng.UniformDouble(6, 14),
                           y + rng.UniformDouble(6, 14)));
    }
  };
  for (int c = 0; c < 12; ++c) {
    cluster(rng.UniformDouble(50, 950), rng.UniformDouble(50, 950));
  }
  cluster(-300, 500);
  cluster(1300, 1250);
  for (int k = 0; k < 3; ++k) {
    const double x = rects[10 * k].x_lo();
    const double y = rects[10 * k].y_lo();
    rects.push_back(Rect(x, y, x, y + 10));  // zero width
    rects.push_back(Rect(x, y, x + 10, y));  // zero height
  }
  rects.push_back(Rect::Empty());
  rects.push_back(Rect::Empty());
  return rects;
}

// A dispersed population: 300 small rectangles spread over [0, 1000]^2,
// plus duplicates, zero-width, zero-height and empty boxes. Under the
// Figure 16 density a partner's bound stays positive out to a few dozen
// box widths, so a grid sized to the bound's reach is far coarser than
// one sized to the boxes.
std::vector<Rect> DispersedRects(uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> rects;
  for (int k = 0; k < 300; ++k) {
    const double x = rng.UniformDouble(0, 1000);
    const double y = rng.UniformDouble(0, 1000);
    rects.push_back(Rect(x, y, x + rng.UniformDouble(0.5, 3),
                         y + rng.UniformDouble(0.5, 3)));
  }
  for (int k = 0; k < 10; ++k) rects.push_back(rects[static_cast<size_t>(k)]);
  for (int k = 0; k < 3; ++k) {
    const double x = rects[static_cast<size_t>(20 + k)].x_lo();
    const double y = rects[static_cast<size_t>(20 + k)].y_lo();
    rects.push_back(Rect(x, y, x, y + 2));  // zero width
    rects.push_back(Rect(x, y, x + 2, y));  // zero height
  }
  rects.push_back(Rect::Empty());
  rects.push_back(Rect::Empty());
  return rects;
}

// Bounding-rect merging under a uniform density: the distance-aware
// configuration the partner query serves.
struct UniformInstance {
  QuerySet queries;
  UniformDensityEstimator estimator;
  BoundingRectProcedure procedure;
  MergeContext ctx{&queries, &estimator, &procedure};

  UniformInstance(std::vector<Rect> rects, double density)
      : queries(std::move(rects)), estimator(density) {}
};

// The dense clustered population under density 0.5.
struct DenseInstance : UniformInstance {
  explicit DenseInstance(uint64_t seed)
      : UniformInstance(DenseRects(seed), 0.5) {}
};

// Unique output of the partner query for `g` over `grid`, sorted here
// for the lookups (the query returns its ids unordered).
std::vector<uint32_t> PartnersOf(const plan::BenefitBounder& bounder,
                                 const plan::GroupSummary& g,
                                 const SpatialGrid& grid,
                                 SpatialGrid::Seen* seen) {
  std::vector<uint32_t> out;
  grid.QueryPassing(bounder.PartnerTestFor(g), seen, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end());
  return out;
}

// Admissibility of the partner query: filtered by UpperBound > 0, what
// the query returns is exactly the set of groups with a positive bound
// against the probe, for singletons, multi-member groups and (on the
// clustered population) a group spanning two clusters. It must hold at
// every grid sizing, since the sizing only decides how many ids a walk
// returns: the planners' reach-sized grid (BenefitBounder::PartnerGrid),
// join sizing, one cell, a grid fixed to the domain (outside boxes clamp
// into edge cells) and one far smaller than it (most boxes lie outside
// the bounds), each entry weighted with BenefitBounder::PartnerWeight as
// the planners weigh theirs. Both populations carry duplicate, hairline
// and empty boxes. The multi-cell grids must actually reject cells, or
// the property would hold vacuously.
TEST(PlannerPruningTest, PartnerQueryReturnsEveryPositiveBound) {
  const CostModel model = bench::Fig16CostModel();
  for (const uint64_t seed : kSeeds) {
    for (const bool dispersed : {false, true}) {
      UniformInstance inst(dispersed ? DispersedRects(seed) : DenseRects(seed),
                           dispersed ? bench::kFig16Density : 0.5);
      const std::string label = std::string(dispersed ? "dispersed" : "dense") +
                                " seed " + std::to_string(seed);
      const plan::BenefitBounder bounder(inst.ctx, model);
      ASSERT_TRUE(bounder.distance_aware());
      const QueryId n = static_cast<QueryId>(inst.queries.size());
      std::vector<QueryGroup> groups;
      for (QueryId q = 0; q < n; ++q) groups.push_back({q});
      Rng rng(seed * 3 + 1);
      for (int k = 0; k < 12; ++k) {
        if (dispersed) {
          // A box and its two nearest neighbours.
          const QueryId a = static_cast<QueryId>(rng.UniformInt(0, 299));
          const Point pa = inst.queries.rect(a).Center();
          std::vector<std::pair<double, QueryId>> by_distance;
          for (QueryId b = 0; b < 300; ++b) {
            if (b == a) continue;
            const Point pb = inst.queries.rect(b).Center();
            by_distance.emplace_back(std::hypot(pa.x - pb.x, pa.y - pb.y), b);
          }
          std::sort(by_distance.begin(), by_distance.end());
          QueryGroup group = {a, by_distance[0].second, by_distance[1].second};
          CanonicalizeGroup(&group);
          groups.push_back(group);
        } else {
          // Cluster mates (ids are generated cluster by cluster).
          const QueryId first = static_cast<QueryId>(
              10 * rng.UniformInt(0, 13) + rng.UniformInt(0, 7));
          groups.push_back({first, first + 1, first + 2});
        }
      }
      if (!dispersed) {
        // The two nearest in-domain clusters, joined by one group.
        QueryGroup across = {0, 10};
        double nearest = std::numeric_limits<double>::infinity();
        for (QueryId a = 0; a < 120; a += 10) {
          for (QueryId b = a + 10; b < 120; b += 10) {
            const Point pa = inst.queries.rect(a).Center();
            const Point pb = inst.queries.rect(b).Center();
            const double d = std::hypot(pa.x - pb.x, pa.y - pb.y);
            if (d < nearest) {
              nearest = d;
              across = {a, b};
            }
          }
        }
        groups.push_back(across);
      }
      std::vector<plan::GroupSummary> sums;
      std::vector<Rect> bboxes;
      for (const QueryGroup& g : groups) {
        sums.push_back(bounder.Summarize(g));
        bboxes.push_back(sums.back().bbox);
      }
      const SpatialGrid reach = bounder.PartnerGrid(sums);
      ASSERT_GT(reach.cells_x() * reach.cells_y(), 1) << label;
      struct Sized {
        std::string name;
        SpatialGrid grid;
      };
      std::vector<Sized> sized = {
          {"join", SpatialGrid::ForRects(bboxes)},
          {"one cell", SpatialGrid::ForRects(
                           bboxes, std::numeric_limits<double>::infinity())},
          {"domain", SpatialGrid(Rect(0, 0, 1000, 1000), 30, 30)},
          {"small", SpatialGrid(Rect(400, 400, 600, 600), 7, 5)}};
      for (Sized& s : sized) {
        for (size_t i = 0; i < groups.size(); ++i) {
          s.grid.Insert(static_cast<uint32_t>(i), bboxes[i],
                        bounder.PartnerWeight(sums[i]));
        }
      }
      sized.push_back({"reach", reach});
      ASSERT_EQ(sized[1].grid.cells_x() * sized[1].grid.cells_y(), 1);
      for (const Sized& s : sized) {
        SpatialGrid::Seen seen;
        size_t omitted = 0;
        for (size_t i = 0; i < groups.size(); ++i) {
          const std::vector<uint32_t> returned =
              PartnersOf(bounder, sums[i], s.grid, &seen);
          omitted += groups.size() - returned.size();
          std::vector<uint32_t> walked, brute;
          for (uint32_t j : returned) {
            if (j != i && bounder.UpperBound(sums[i], sums[j]) > 0.0) {
              walked.push_back(j);
            }
          }
          for (size_t j = 0; j < groups.size(); ++j) {
            if (j != i && bounder.UpperBound(sums[i], sums[j]) > 0.0) {
              brute.push_back(static_cast<uint32_t>(j));
            }
          }
          EXPECT_EQ(walked, brute) << label << " grid " << s.name
                                   << " probe " << GroupToString(groups[i]);
        }
        if (s.grid.cells_x() * s.grid.cells_y() > 1) {
          EXPECT_GT(omitted, 0u) << label << " grid " << s.name;
        }
      }
    }
  }
}

// Bounding-rect merging that does not promise one message per group:
// the bounds keep the distance term but cannot charge the K_U one.
class SeveralMessageBoundingRect : public BoundingRectProcedure {
 public:
  ProcedureTraits traits() const override {
    ProcedureTraits traits = BoundingRectProcedure::traits();
    traits.single_message = false;
    return traits;
  }
};

// Disjoint, spatially compact groups covering every query: each group
// starts from a random unassigned query and takes its nearest unassigned
// neighbours, 1-20 members in all (about half the groups are
// singletons). A query without a box stays a singleton.
std::vector<QueryGroup> CompactGroups(const QuerySet& queries, Rng* rng) {
  const QueryId n = static_cast<QueryId>(queries.size());
  std::vector<QueryId> order(n);
  for (QueryId q = 0; q < n; ++q) order[q] = q;
  rng->Shuffle(&order);
  std::vector<bool> taken(n, false);
  std::vector<QueryGroup> groups;
  for (const QueryId first : order) {
    if (taken[first]) continue;
    taken[first] = true;
    QueryGroup group = {first};
    const size_t members =
        rng->Bernoulli(0.5) ? 1 : static_cast<size_t>(rng->UniformInt(2, 20));
    const Rect& box = queries.rect(first);
    if (members > 1 && !box.IsEmpty()) {
      const Point c = box.Center();
      std::vector<std::pair<double, QueryId>> nearest;
      for (QueryId q = 0; q < n; ++q) {
        if (taken[q] || queries.rect(q).IsEmpty()) continue;
        const Point p = queries.rect(q).Center();
        nearest.emplace_back(std::hypot(c.x - p.x, c.y - p.y), q);
      }
      std::sort(nearest.begin(), nearest.end());
      nearest.resize(std::min(nearest.size(), members - 1));
      for (const auto& [distance, q] : nearest) {
        taken[q] = true;
        group.push_back(q);
      }
    }
    CanonicalizeGroup(&group);
    groups.push_back(std::move(group));
  }
  return groups;
}

// Admissibility of the partner query on random groups: for seeded
// random disjoint groups of 1-20 members, every group with a positive
// UpperBound against the probe comes back from the walk. The models
// cover the irrelevant-data term on (Fig 16's constants, live-churn's
// K_T 1 / K_U 0.5, and a channel's K_M as ChannelCostEvaluator inflates
// it by k_check) and off (K_U = 0, a bounding rect that may send several
// messages, exact cover); the estimators are uniform and a histogram
// with a positive density floor; the grids are reach-sized, join-sized,
// one cell and two odd-sized fixed grids. The sharpest form is checked
// first: the probe's test accepts every such partner's own box under
// its own weight (every cell holding the partner contains that box, and
// the test is monotone). Over all seeds, populations and estimators,
// each configuration must find positive bounds, and each distance-aware
// one must omit groups on its multi-cell grids, or the property would
// hold vacuously. (A heavy multi-member group in a cell lets a walk
// accept the cell from far away, so a single instance may omit
// nothing.)
TEST(PlannerPruningTest, PartnerQueryReturnsEveryPositiveBoundOnRandomGroups) {
  const CostModel fig16 = bench::Fig16CostModel();
  CostModel no_ku = fig16;
  no_ku.k_u = 0.0;
  const CostModel churn{10.0, 1.0, 0.5, 0.0};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::map<std::string, size_t> positive, omitted;
  for (const uint64_t seed : kSeeds) {
    for (const bool dispersed : {false, true}) {
      const QuerySet queries(dispersed ? DispersedRects(seed)
                                       : DenseRects(seed));
      const double density = dispersed ? bench::kFig16Density : 0.5;
      Rect domain = Rect::Empty();
      for (QueryId q = 0; q < queries.size(); ++q) {
        domain = domain.BoundingUnion(queries.rect(q));
      }
      domain = Rect(domain.x_lo() - 1, domain.y_lo() - 1, domain.x_hi() + 1,
                    domain.y_hi() + 1);
      TableGeneratorConfig tconfig;
      tconfig.domain = domain;
      tconfig.num_objects = 20000;
      tconfig.clustered_fraction = 0.5;
      Rng trng(seed + 1);
      const Table table = GenerateTable(tconfig, &trng);
      // The record size puts the histogram's mean density at `density`;
      // its floor, the sparsest bucket's, lies below.
      const HistogramEstimator histogram(
          table, domain, 8, 8,
          density * domain.Area() / static_cast<double>(tconfig.num_objects));
      ASSERT_GT(histogram.Floor().density, 0.0);
      const UniformDensityEstimator uniform(density);
      const BoundingRectProcedure rect;
      const SeveralMessageBoundingRect several;
      const ExactCoverProcedure cover;
      Rng rng(seed * 5 + 3);
      const std::vector<QueryGroup> groups = CompactGroups(queries, &rng);

      const std::pair<std::string, const SizeEstimator*> estimators[] = {
          {"uniform", &uniform}, {"histogram", &histogram}};
      for (const auto& [estimator_name, estimator] : estimators) {
        // A channel of four clients under rounds-3ch's k_check 3.
        const MergeContext rect_ctx(&queries, estimator, &rect);
        CostModel multi_channel = fig16;
        multi_channel.k_check = 3.0;
        ClientSet clients;
        for (int c = 0; c < 4; ++c) clients.AddClient();
        const CostModel channel =
            ChannelCostEvaluator(&rect_ctx, multi_channel, &clients)
                .ChannelModel({0, 1, 2, 3});
        ASSERT_EQ(channel.k_m, fig16.k_m + 12.0);
        struct Config {
          std::string name;
          const MergeProcedure* procedure;
          CostModel model;
          bool charges;
          bool distance_aware;
        };
        const Config configs[] = {
            {"fig16", &rect, fig16, true, true},
            {"churn", &rect, churn, true, true},
            {"channel", &rect, channel, true, true},
            {"k_u=0", &rect, no_ku, false, true},
            {"several-message", &several, fig16, false, true},
            {"exact-cover", &cover, fig16, false, false}};
        for (const Config& config : configs) {
          const MergeContext ctx(&queries, estimator, config.procedure);
          const plan::BenefitBounder bounder(ctx, config.model);
          const std::string label =
              std::string(dispersed ? "dispersed" : "dense") + " seed " +
              std::to_string(seed) + " " + estimator_name + " " +
              config.name;
          ASSERT_EQ(bounder.charges_irrelevant(), config.charges) << label;
          ASSERT_EQ(bounder.distance_aware(), config.distance_aware) << label;
          std::vector<plan::GroupSummary> sums;
          std::vector<Rect> bboxes;
          for (const QueryGroup& g : groups) {
            sums.push_back(bounder.Summarize(g));
            bboxes.push_back(sums.back().bbox);
          }
          for (size_t i = 0; i < groups.size(); ++i) {
            const auto test = bounder.PartnerTestFor(sums[i]);
            for (size_t j = 0; j < groups.size(); ++j) {
              if (j == i || bboxes[j].IsEmpty() ||
                  !(bounder.UpperBound(sums[i], sums[j]) > 0.0)) {
                continue;
              }
              EXPECT_TRUE(test(bboxes[j], bounder.PartnerWeight(sums[j])))
                  << label << " probe " << GroupToString(groups[i])
                  << " partner " << GroupToString(groups[j]);
            }
          }
          std::vector<std::pair<std::string, SpatialGrid>> grids;
          grids.emplace_back("join", SpatialGrid::ForRects(bboxes));
          grids.emplace_back("one cell", SpatialGrid::ForRects(bboxes, kInf));
          grids.emplace_back("odd", SpatialGrid(domain, 13, 7));
          grids.emplace_back(
              "odd small",
              SpatialGrid(Rect(domain.Center().x - 150, domain.Center().y - 50,
                               domain.Center().x + 150, domain.Center().y + 50),
                          5, 3));
          for (auto& [name, grid] : grids) {
            for (size_t i = 0; i < groups.size(); ++i) {
              grid.Insert(static_cast<uint32_t>(i), bboxes[i],
                          bounder.PartnerWeight(sums[i]));
            }
          }
          grids.emplace_back("reach", bounder.PartnerGrid(sums));
          for (const auto& [name, grid] : grids) {
            SpatialGrid::Seen seen;
            const bool cells = grid.cells_x() * grid.cells_y() > 1;
            for (size_t i = 0; i < groups.size(); ++i) {
              const std::vector<uint32_t> returned =
                  PartnersOf(bounder, sums[i], grid, &seen);
              if (cells) {
                omitted[config.name] += groups.size() - returned.size();
              }
              std::vector<uint32_t> walked, brute;
              for (uint32_t j : returned) {
                if (j != i && bounder.UpperBound(sums[i], sums[j]) > 0.0) {
                  walked.push_back(j);
                }
              }
              for (size_t j = 0; j < groups.size(); ++j) {
                if (j != i && bounder.UpperBound(sums[i], sums[j]) > 0.0) {
                  brute.push_back(static_cast<uint32_t>(j));
                }
              }
              positive[config.name] += brute.size();
              EXPECT_EQ(walked, brute) << label << " grid " << name
                                       << " probe " << GroupToString(groups[i]);
            }
          }
        }
      }
    }
  }
  for (const auto& [name, count] : positive) {
    EXPECT_GT(count, 0u) << name;
    if (name != "exact-cover") {
      EXPECT_GT(omitted[name], 0u) << name;
    }
  }
}

// Query boxes over a clustered table, all inside `domain` (the histogram
// floor's support): boxes around random rows, most of which lie in
// clusters, each followed by a nested, an overlapping, a touching and a
// hairline neighbour, plus one empty rectangle.
std::vector<Rect> ClusteredBoxes(const Table& table, const Rect& domain,
                                 Rng* rng) {
  auto inside = [&domain](double x_lo, double y_lo, double x_hi,
                          double y_hi) {
    return Rect(std::clamp(x_lo, domain.x_lo(), domain.x_hi()),
                std::clamp(y_lo, domain.y_lo(), domain.y_hi()),
                std::clamp(x_hi, domain.x_lo(), domain.x_hi()),
                std::clamp(y_hi, domain.y_lo(), domain.y_hi()));
  };
  std::vector<Rect> rects;
  for (int k = 0; k < 14; ++k) {
    const Point p = table.PositionOf(static_cast<RowId>(rng->UniformInt(
        0, static_cast<int64_t>(table.num_rows()) - 1)));
    const double w = rng->UniformDouble(2, 80);
    const double h = rng->UniformDouble(2, 80);
    const Rect box =
        inside(p.x - w / 2, p.y - h / 2, p.x + w / 2, p.y + h / 2);
    rects.push_back(box);
    rects.push_back(inside(box.x_lo() + box.Width() / 4,
                           box.y_lo() + box.Height() / 4,
                           box.x_hi() - box.Width() / 4,
                           box.y_hi() - box.Height() / 4));  // nested
    rects.push_back(inside(box.x_lo() + box.Width() / 2, box.y_lo() - 5,
                           box.x_hi() + box.Width() / 2,
                           box.y_hi() - 5));  // overlapping
    rects.push_back(inside(box.x_hi(), box.y_lo(), box.x_hi() + w,
                           box.y_hi()));  // touching
    rects.push_back(inside(box.x_lo(), box.y_lo(), box.x_lo(),
                           box.y_hi()));  // hairline
  }
  rects.push_back(Rect::Empty());
  return rects;
}

// The box excess (DESIGN.md §8): a bounding-box group's size is its own
// box's estimate, and the rest of a bounding union holds at least the
// floor density, so the bound credits the excess of a box over the floor,
// the larger excess when two boxes meet and both when they are disjoint.
// The floor is the sparsest bucket's, so over clusters the credit is
// large. Over clustered histogram tables (3k and 30k rows, cluster spread
// 1% and 4% of the side, 8, 16 and 32 buckets a side, half and 95% of the
// rows clustered), with nested, overlapping, touching, hairline and empty
// boxes in groups of one to n members, under Fig 16's constants,
// live-churn's, K_U = 0 and a large K_M: every UpperBound is at least the
// exact benefit, and the probe's partner test accepts the own box of every
// partner with a positive bound. Crediting both excesses to boxes that
// meet breaks the first.
TEST(PlannerPruningTest, BoxExcessBoundIsAdmissibleOnClusteredHistograms) {
  const Rect domain(0, 0, 1000, 1000);
  const CostModel fig16 = bench::Fig16CostModel();
  CostModel no_ku = fig16;
  no_ku.k_u = 0.0;
  CostModel heavy = fig16;
  heavy.k_m = 5000.0;
  const std::pair<const char*, CostModel> models[] = {
      {"fig16", fig16},
      {"churn", CostModel{10.0, 1.0, 0.5, 0.0}},
      {"k_u=0", no_ku},
      {"k_m=5000", heavy}};
  const BoundingRectProcedure procedure;
  size_t floored_tables = 0, credited = 0, positive = 0;
  uint64_t seed = 0;
  for (const size_t rows : {3000, 30000}) {
    for (const double spread : {0.01, 0.04}) {
      for (const int buckets : {8, 16, 32}) {
        for (const double clustered : {0.5, 0.95}) {
          ++seed;
          TableGeneratorConfig tconfig;
          tconfig.domain = domain;
          tconfig.num_objects = rows;
          tconfig.clustered_fraction = clustered;
          tconfig.cluster_spread = spread;
          tconfig.payload_fields = 0;
          Rng rng(seed * 101 + 7);
          const Table table = GenerateTable(tconfig, &rng);
          const HistogramEstimator histogram(table, domain, buckets, buckets);
          const QuerySet queries(ClusteredBoxes(table, domain, &rng));
          const MergeContext ctx(&queries, &histogram, &procedure);
          const std::vector<QueryGroup> partitions[] = {
              CompactGroups(queries, &rng),
              RandomGroups(queries.size(), 12, &rng)};
          const std::string table_label =
              std::to_string(rows) + " rows, spread " +
              std::to_string(spread) + ", " + std::to_string(buckets) +
              " buckets, clustered " + std::to_string(clustered);
          for (const auto& [model_name, model] : models) {
            const plan::BenefitBounder bounder(ctx, model);
            ASSERT_TRUE(bounder.enabled());
            if (bounder.distance_aware() && model_name == models[0].first) {
              ++floored_tables;
            }
            for (const std::vector<QueryGroup>& groups : partitions) {
              std::vector<plan::GroupSummary> sums;
              for (const QueryGroup& g : groups) {
                sums.push_back(bounder.Summarize(g));
                if (sums.back().excess > 0.0) ++credited;
              }
              for (size_t i = 0; i < groups.size(); ++i) {
                const auto test = bounder.PartnerTestFor(sums[i]);
                for (size_t j = 0; j < groups.size(); ++j) {
                  if (j == i) continue;
                  const double bound = bounder.UpperBound(sums[i], sums[j]);
                  const std::string label =
                      table_label + " " + model_name + " pair " +
                      GroupToString(groups[i]) + " + " +
                      GroupToString(groups[j]);
                  if (j > i) {
                    EXPECT_GE(bound,
                              model.MergeBenefit(ctx, groups[i], groups[j]))
                        << label;
                  }
                  if (!(bound > 0.0) || sums[j].bbox.IsEmpty()) continue;
                  ++positive;
                  EXPECT_TRUE(
                      test(sums[j].bbox, bounder.PartnerWeight(sums[j])))
                      << label;
                }
              }
            }
          }
        }
      }
    }
  }
  // The property must not hold vacuously: tables with a density floor,
  // groups the bound credits, and pairs with a positive bound.
  EXPECT_GE(floored_tables, 8u);
  EXPECT_GT(credited, 0u);
  EXPECT_GT(positive, 0u);
}

// Pair merging of Fig 16's clustered workload over a clustered histogram,
// the regime where the box excess prunes: the plan is the Profit Table's,
// and the refinements are pinned, 143 against the 849 of the bound
// without the excess.
TEST(PlannerPruningTest, ClusteredHistogramPairMergeMatchesProfitTable) {
  const Rect domain(0, 0, 1000, 1000);
  TableGeneratorConfig tconfig;
  tconfig.domain = domain;
  tconfig.num_objects = 30000;
  tconfig.clustered_fraction = 0.5;
  tconfig.payload_fields = 0;
  Rng trng(2027);
  const Table table = GenerateTable(tconfig, &trng);
  // The record size puts the mean density at Fig 16's.
  const HistogramEstimator histogram(
      table, domain, 16, 16,
      bench::kFig16Density * domain.Area() /
          static_cast<double>(tconfig.num_objects));
  Rng qrng(5);
  const QuerySet queries(
      GenerateQueries(bench::Fig16WorkloadConfig(120), &qrng));
  const BoundingRectProcedure procedure;
  const MergeContext table_ctx(&queries, &histogram, &procedure);
  const MergeContext heap_ctx(&queries, &histogram, &procedure);
  const CostModel model = bench::Fig16CostModel();
  ASSERT_TRUE(plan::BenefitBounder(heap_ctx, model).distance_aware());
  const auto profit_table =
      PairMerger(/*use_heap=*/false).Merge(table_ctx, model);
  const auto pruned =
      PairMerger(/*use_heap=*/true, /*pruning=*/true).Merge(heap_ctx, model);
  ASSERT_TRUE(profit_table.ok());
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->partition, profit_table->partition);
  EXPECT_EQ(pruned->cost, profit_table->cost);
  EXPECT_LT(pruned->partition.size(), queries.size()) << "nothing merged";
  EXPECT_EQ(pruned->bounds_refined, 143u);
}

// The planners' grid sizing: coarsening to the bound's reach never adds
// cells on either axis over join sizing, and a bounder without the
// distance term gets one cell, since its walk accepts every cell.
TEST(PlannerPruningTest, PartnerGridIsNoFinerThanJoinSizing) {
  const CostModel model = bench::Fig16CostModel();
  for (const uint64_t seed : kSeeds) {
    for (const bool dispersed : {false, true}) {
      UniformInstance inst(dispersed ? DispersedRects(seed) : DenseRects(seed),
                           dispersed ? bench::kFig16Density : 0.5);
      const plan::BenefitBounder bounder(inst.ctx, model);
      std::vector<plan::GroupSummary> sums;
      std::vector<Rect> bboxes;
      for (QueryId q = 0; q < inst.queries.size(); ++q) {
        sums.push_back(bounder.Summarize({q}));
        bboxes.push_back(sums.back().bbox);
      }
      const SpatialGrid join = SpatialGrid::ForRects(bboxes);
      const SpatialGrid reach = bounder.PartnerGrid(sums);
      EXPECT_LE(reach.cells_x(), join.cells_x()) << "seed " << seed;
      EXPECT_LE(reach.cells_y(), join.cells_y()) << "seed " << seed;
      EXPECT_EQ(reach.size(), sums.size());
      if (dispersed) {
        // The reach spans several join cells here, so the walk's grid
        // really is coarser.
        EXPECT_LT(reach.cells_x() * reach.cells_y(),
                  join.cells_x() * join.cells_y())
            << "seed " << seed;
      }

      ExactCoverProcedure cover;
      MergeContext cover_ctx(&inst.queries, &inst.estimator, &cover);
      const plan::BenefitBounder flat(cover_ctx, model);
      ASSERT_FALSE(flat.distance_aware());
      const SpatialGrid one = flat.PartnerGrid(sums);
      EXPECT_EQ(one.cells_x(), 1);
      EXPECT_EQ(one.cells_y(), 1);
      EXPECT_EQ(one.size(), sums.size());
    }
  }
  // No groups: a valid, empty one-cell grid.
  DenseInstance inst(kSeeds[0]);
  const plan::BenefitBounder bounder(inst.ctx, model);
  const SpatialGrid empty = bounder.PartnerGrid({});
  EXPECT_EQ(empty.cells_x() * empty.cells_y(), 1);
  EXPECT_EQ(empty.size(), 0u);
}

// The partner test itself on hand-made regions: it accepts the probe's
// own box for an equally weighted partner, rejects a region without
// entries (weight -inf) and a far one, measures no gap on a region's open
// side, and accepts everything for a probe without a box or a bounder
// without the distance term. Under Fig 16's single-message bounding rect
// it charges the irrelevant-data term, so it rejects a region the
// cost-only test accepts; with K_U = 0, or a procedure that may send
// several messages, it is the cost-only test and the weight is the cost.
TEST(PlannerPruningTest, PartnerTestRejectsOnlyUnprofitableRegions) {
  const CostModel model = bench::Fig16CostModel();
  DenseInstance inst(kSeeds[0]);
  const plan::BenefitBounder bounder(inst.ctx, model);
  ASSERT_TRUE(bounder.distance_aware());
  ASSERT_TRUE(bounder.charges_irrelevant());
  const plan::GroupSummary g = bounder.Summarize({0});
  const double weight = bounder.PartnerWeight(g);
  EXPECT_GT(weight, g.cost);
  const auto test = bounder.PartnerTestFor(g);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(test(g.bbox, weight));
  EXPECT_FALSE(test(g.bbox, -kInf));
  const Rect far(g.bbox.x_hi() + 500, g.bbox.y_lo(), g.bbox.x_hi() + 510,
                 g.bbox.y_hi());
  EXPECT_FALSE(test(far, weight));
  // A heavy enough partner pays for any gap.
  EXPECT_TRUE(test(far, 1e9));
  // Regions open outward (edge cells) have no gap on their open side.
  EXPECT_TRUE(test(Rect(-kInf, -kInf, g.bbox.x_lo(), kInf), weight));

  const QueryId empty = static_cast<QueryId>(inst.queries.size() - 1);
  ASSERT_TRUE(inst.queries.rect(empty).IsEmpty());
  const auto boxless = bounder.PartnerTestFor(bounder.Summarize({empty}));
  EXPECT_TRUE(boxless(far, -kInf));
  ExactCoverProcedure cover;
  MergeContext cover_ctx(&inst.queries, &inst.estimator, &cover);
  const plan::BenefitBounder flat(cover_ctx, model);
  ASSERT_FALSE(flat.distance_aware());
  EXPECT_TRUE(flat.PartnerTestFor(flat.Summarize({0}))(far, -kInf));

  // The cost-only test, as the bounds ran it before they charged the
  // irrelevant-data term: reject when K_M + K_T * kSlack * density *
  // (w + g_x)(h + g_y) reaches cost_g + max_weight.
  const double density = 0.5;
  const double slack = plan::BenefitBounder::kSlack;
  auto cost_only = [&](const plan::GroupSummary& probe, const Rect& region,
                       double max_weight) {
    const Rect& box = probe.bbox;
    const double gap_x = std::max(
        {0.0, region.x_lo() - box.x_hi(), box.x_lo() - region.x_hi()});
    const double gap_y = std::max(
        {0.0, region.y_lo() - box.y_hi(), box.y_lo() - region.y_hi()});
    const double merged_lb =
        model.k_m + model.k_t * slack * density *
                        ((box.Width() + gap_x) * (box.Height() + gap_y));
    return merged_lb * (1.0 - plan::BenefitBounder::kMargin) <
           probe.cost + max_weight;
  };

  // A partner equal to g stops passing the cost-only test once the
  // region lies at area (w + g_x) * h = (2 cost_g - K_M) / (K_T * kSlack
  // * density), and the charged one already at (2 weight_g - K_M) /
  // ((K_T + 2 K_U) * kSlack * density). Halfway between, only the
  // charged test rejects.
  const double w = g.bbox.Width();
  const double h = g.bbox.Height();
  const double cost_only_area =
      (2.0 * g.cost - model.k_m) / (model.k_t * slack * density);
  const double charged_area = (2.0 * weight - model.k_m) /
                              ((model.k_t + 2.0 * model.k_u) * slack * density);
  ASSERT_LT(charged_area, cost_only_area);
  const double gap = 0.5 * (charged_area + cost_only_area) / h - w;
  ASSERT_GT(gap, 0.0);
  const Rect between(g.bbox.x_hi() + gap, g.bbox.y_lo(),
                     g.bbox.x_hi() + gap + 1, g.bbox.y_hi());
  EXPECT_FALSE(test(between, weight));
  EXPECT_TRUE(cost_only(g, between, g.cost));

  // Without the term the test is the cost-only one, answer for answer.
  CostModel no_ku = model;
  no_ku.k_u = 0.0;
  const plan::BenefitBounder unit_cost(inst.ctx, no_ku);
  SeveralMessageBoundingRect several;
  MergeContext several_ctx(&inst.queries, &inst.estimator, &several);
  const plan::BenefitBounder several_bounder(several_ctx, model);
  for (const plan::BenefitBounder* b : {&unit_cost, &several_bounder}) {
    ASSERT_TRUE(b->distance_aware());
    ASSERT_FALSE(b->charges_irrelevant());
    const plan::GroupSummary probe = b->Summarize({0, 1, 2});
    EXPECT_EQ(b->PartnerWeight(probe), probe.cost);
    const auto uncharged = b->PartnerTestFor(probe);
    size_t accepted = 0, rejected = 0;
    for (const double gap_x : {0.0, 5.0, 20.0, 40.0, 80.0, 160.0, 640.0}) {
      for (const double gap_y : {0.0, 10.0, 50.0}) {
        const Rect region(probe.bbox.x_hi() + gap_x,
                          probe.bbox.y_hi() + gap_y,
                          probe.bbox.x_hi() + gap_x + 4,
                          probe.bbox.y_hi() + gap_y + 4);
        for (const double max_weight :
             {-kInf, 0.5 * probe.cost, probe.cost, 4.0 * probe.cost}) {
          const bool expected = cost_only(probe, region, max_weight);
          EXPECT_EQ(uncharged(region, max_weight), expected)
              << "gap " << gap_x << " x " << gap_y << " weight "
              << max_weight;
          ++(expected ? accepted : rejected);
        }
      }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

// Plan identity where the partner query bites: on the dense instances,
// pruned pair, directed and incremental merging equal their exhaustive
// references (the Profit Table, and the test-local descent and
// incremental merger). Pair merging's effort counters are pinned: they
// depend only on which pairs reach its heap (those with a positive
// bound), never on how many candidates the partner query returns, so a
// sharper query must leave them unchanged.
TEST(PlannerPruningTest, DenseInstancesMatchExhaustivePlans) {
  const CostModel model = bench::Fig16CostModel();
  struct Counters {
    uint64_t candidates, bounds_refined, bounds_pruned;
  };
  const Counters kPinned[] = {
      {56, 56, 17372}, {56, 56, 17386}, {58, 58, 17562}};
  for (size_t s = 0; s < std::size(kSeeds); ++s) {
    const uint64_t seed = kSeeds[s];
    DenseInstance exhaustive_inst(seed);
    DenseInstance pruned_inst(seed);
    const auto pair_exhaustive =
        PairMerger(/*use_heap=*/false).Merge(exhaustive_inst.ctx, model);
    const auto pair_pruned =
        PairMerger(/*use_heap=*/true, /*pruning=*/true)
            .Merge(pruned_inst.ctx, model);
    ASSERT_TRUE(pair_exhaustive.ok());
    ASSERT_TRUE(pair_pruned.ok());
    EXPECT_EQ(pair_pruned->partition, pair_exhaustive->partition);
    EXPECT_EQ(pair_pruned->cost, pair_exhaustive->cost);
    EXPECT_LT(pair_pruned->partition.size(), exhaustive_inst.queries.size())
        << "seed " << seed << ": nothing merged";
    EXPECT_EQ(pair_pruned->candidates, kPinned[s].candidates);
    EXPECT_EQ(pair_pruned->bounds_refined, kPinned[s].bounds_refined);
    EXPECT_EQ(pair_pruned->bounds_pruned, kPinned[s].bounds_pruned);

    // One restart descends from singletons only.
    Partition directed_exhaustive =
        SingletonPartition(exhaustive_inst.queries.size());
    reference::ExhaustiveDescent(exhaustive_inst.ctx, model,
                                 &directed_exhaustive);
    CanonicalizePartition(&directed_exhaustive);
    const auto directed_pruned = DirectedSearchMerger(/*restarts=*/1, seed,
                                                      /*pruning=*/true)
                                     .Merge(pruned_inst.ctx, model);
    ASSERT_TRUE(directed_pruned.ok());
    EXPECT_EQ(directed_pruned->partition, directed_exhaustive);
    EXPECT_EQ(directed_pruned->cost,
              model.PartitionCost(exhaustive_inst.ctx, directed_exhaustive));

    // Arrivals, departures and repairs, decision by decision.
    reference::ExhaustiveIncrementalMerger plain(&exhaustive_inst.ctx, model);
    IncrementalMerger pruned(&pruned_inst.ctx, model);
    const QueryId n = static_cast<QueryId>(pruned_inst.queries.size());
    for (QueryId id = 0; id < n; ++id) {
      plain.AddQuery(id);
      pruned.AddQuery(id);
      if (id % 5 == 4) {
        plain.RemoveQuery(id - 3);
        pruned.RemoveQuery(id - 3);
      }
      if (id % 16 == 15) {
        plain.Repair(4);
        pruned.Repair(4);
      }
      ASSERT_EQ(pruned.partition(), plain.partition())
          << "seed " << seed << " after id " << id;
    }
    plain.Repair();
    pruned.Repair();
    EXPECT_EQ(pruned.partition(), plain.partition()) << "seed " << seed;
    EXPECT_LT(pruned.evaluations(), plain.evaluations()) << "seed " << seed;
  }
}

// Every directed-search restart after the first descends from a random
// scatter through IncrementalMerger::Reset and Repair. From the same
// scatter, that descent with pruning on and with pruning off makes the
// exhaustive descent's decisions, partition and cost bit for bit, under
// every procedure, estimator and seed; off prunes nothing, and on
// evaluates no more than off. A scatter's groups span the domain, so
// this also covers the partner grid rebuilt as they shrink.
// Clustering takes its intersecting pairs from grid walks over the
// placed boxes and every pair with an empty box from its size-sum
// enumeration. On populations with duplicate, hairline and empty boxes
// the pruned components, and so the plans, must be the unpruned ones,
// and an empty box must really join a group somewhere, or a dropped
// boundless pair would go unseen.
TEST(PlannerPruningTest, ClusteringPairsCoverHairlineAndEmptyBoxes) {
  const CostModel model = bench::Fig16CostModel();
  size_t empty_boxes_merged = 0;
  for (const uint64_t seed : kSeeds) {
    for (const bool dense : {true, false}) {
      const double density = dense ? 0.5 : bench::kFig16Density;
      UniformInstance pruned_inst(
          dense ? DenseRects(seed) : DispersedRects(seed), density);
      UniformInstance plain_inst(
          dense ? DenseRects(seed) : DispersedRects(seed), density);
      const auto pruned =
          ClusteringMerger(/*pruning=*/true).Merge(pruned_inst.ctx, model);
      const auto plain =
          ClusteringMerger(/*pruning=*/false).Merge(plain_inst.ctx, model);
      ASSERT_TRUE(pruned.ok());
      ASSERT_TRUE(plain.ok());
      const std::string label =
          std::string(dense ? "dense" : "dispersed") + " seed " +
          std::to_string(seed);
      EXPECT_EQ(pruned->partition, plain->partition) << label;
      EXPECT_EQ(pruned->cost, plain->cost) << label;
      for (const QueryGroup& group : plain->partition) {
        if (group.size() < 2) continue;
        for (QueryId q : group) {
          if (plain_inst.queries.rect(q).IsEmpty()) ++empty_boxes_merged;
        }
      }
    }
  }
  EXPECT_GT(empty_boxes_merged, 0u);
}

TEST(PlannerPruningTest, DescentFromRandomScatterMatchesExhaustiveDescent) {
  const CostModel model = bench::Fig16CostModel();
  constexpr size_t kN = 30;
  size_t moved = 0;
  for (const std::string& procedure :
       {std::string("bounding-rect"), std::string("bounding-polygon"),
        std::string("exact-cover")}) {
    for (const std::string& estimator :
         {std::string("uniform"), std::string("histogram")}) {
      for (const uint64_t seed : kSeeds) {
        Instance reference_inst(kN, seed, procedure, estimator);
        Instance inst(kN, seed, procedure, estimator);
        Rng rng(seed + 100);
        for (int draw = 0; draw < 3; ++draw) {
          const std::string label = procedure + "/" + estimator + "/seed" +
                                    std::to_string(seed) + "/draw" +
                                    std::to_string(draw);
          Partition scatter = RandomGroups(kN, kN, &rng);
          CanonicalizePartition(&scatter);
          Partition expected = scatter;
          const double expected_cost = reference::ExhaustiveDescent(
              *reference_inst.ctx, model, &expected);
          if (expected != scatter) ++moved;
          uint64_t evaluations[2] = {0, 0};
          for (const bool pruning : {false, true}) {
            IncrementalMerger descent(inst.ctx.get(), model, pruning);
            descent.Reset(scatter);
            const uint64_t before = descent.evaluations();
            const double cost = descent.Repair();
            EXPECT_EQ(descent.partition(), expected) << label;
            EXPECT_EQ(cost, expected_cost) << label;
            evaluations[pruning ? 1 : 0] = descent.evaluations() - before;
            if (!pruning) {
              EXPECT_EQ(descent.bounds_pruned(), 0u) << label;
            }
          }
          EXPECT_LE(evaluations[1], evaluations[0]) << label;
        }
      }
    }
  }
  // The scatters are far from local minima: the descents really move.
  EXPECT_GT(moved, 0u);
}

// Pair merging on the dispersed instances, where the partner walks are
// most of the planning work: the plan equals the Profit Table's, and
// the ids the walks return (`plan.partner.returned`) are pinned next to
// the effort counters. The walks charge the irrelevant-data term, and
// each seeding walk runs over a grid holding only the groups above its
// own, so a walk that returns more ids (the cost-only partner test, or
// a full grid at seeding) moves the pinned count, while the counters
// that depend only on the positive-bound pairs cannot move.
TEST(PlannerPruningTest, DispersedPartnerWalksReturnPinnedIds) {
  const CostModel model = bench::Fig16CostModel();
  struct Counters {
    uint64_t candidates, bounds_refined, bounds_pruned, returned;
  };
  const Counters kPinned[] = {{173, 173, 88252, 7187},
                              {180, 180, 89328, 7039},
                              {172, 172, 88172, 5977}};
  obs::SetEnabled(true);
  auto& registry = obs::MetricRegistry::Default();
  for (size_t s = 0; s < std::size(kSeeds); ++s) {
    const uint64_t seed = kSeeds[s];
    UniformInstance exhaustive_inst(DispersedRects(seed), bench::kFig16Density);
    UniformInstance pruned_inst(DispersedRects(seed), bench::kFig16Density);
    const auto exhaustive =
        PairMerger(/*use_heap=*/false).Merge(exhaustive_inst.ctx, model);
    registry.Reset();
    const auto pruned = PairMerger(/*use_heap=*/true, /*pruning=*/true)
                            .Merge(pruned_inst.ctx, model);
    const uint64_t returned = registry.CounterValue("plan.partner.returned");
    ASSERT_TRUE(exhaustive.ok());
    ASSERT_TRUE(pruned.ok());
    EXPECT_EQ(pruned->partition, exhaustive->partition) << "seed " << seed;
    EXPECT_EQ(pruned->cost, exhaustive->cost) << "seed " << seed;
    EXPECT_LT(pruned->partition.size(), pruned_inst.queries.size())
        << "seed " << seed << ": nothing merged";
    EXPECT_EQ(pruned->candidates, kPinned[s].candidates) << "seed " << seed;
    EXPECT_EQ(pruned->bounds_refined, kPinned[s].bounds_refined)
        << "seed " << seed;
    EXPECT_EQ(pruned->bounds_pruned, kPinned[s].bounds_pruned)
        << "seed " << seed;
    EXPECT_EQ(returned, kPinned[s].returned) << "seed " << seed;
  }
  registry.Reset();
  obs::SetEnabled(false);
}

// The live service's drift yardstick (DESIGN.md §11): the fresh-plan
// lower bound must never exceed the cost of any partition of the live
// set, so neither the exact optimum nor a random partition, on every
// merge procedure and estimator, for the whole query set and for a
// random live subset of it. The rectangles crowd a small domain and
// repeat, so the optimum merges overlapping ones and the bound's
// disjointness condition matters.
TEST(PlannerPruningTest, FreshPlanLowerBoundIsAdmissible) {
  const Rect domain(0, 0, 100, 100);
  TableGeneratorConfig tconfig;
  tconfig.domain = domain;
  tconfig.num_objects = 3000;
  tconfig.clustered_fraction = 0.6;
  Rng trng(7);
  const Table table = GenerateTable(tconfig, &trng);
  const UniformDensityEstimator uniform(0.3);
  const HistogramEstimator histogram(table, domain, 8, 8);
  const BoundingRectProcedure rect_procedure;
  const BoundingPolygonProcedure polygon_procedure;
  const ExactCoverProcedure cover_procedure;
  const std::pair<const char*, const SizeEstimator*> kEstimators[] = {
      {"uniform", &uniform}, {"histogram", &histogram}};
  const std::pair<const char*, const MergeProcedure*> kProcedures[] = {
      {"bounding-rect", &rect_procedure},
      {"bounding-polygon", &polygon_procedure},
      {"exact-cover", &cover_procedure}};
  const auto random_partition = [](const std::vector<QueryId>& ids,
                                   Rng* rng) {
    Partition groups(ids.size());
    for (QueryId id : ids) {
      groups[static_cast<size_t>(rng->UniformInt(
                 0, static_cast<int64_t>(ids.size()) - 1))]
          .push_back(id);
    }
    CanonicalizePartition(&groups);
    return groups;
  };
  for (const auto& [procedure_name, procedure] : kProcedures) {
    for (const auto& [estimator_name, estimator] : kEstimators) {
      for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 7919);
        const size_t n = static_cast<size_t>(rng.UniformInt(1, 8));
        std::vector<Rect> rects;
        for (size_t i = 0; i < n; ++i) {
          if (i > 0 && rng.UniformInt(0, 3) == 0) {
            rects.push_back(rects[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
            continue;
          }
          const double x = rng.UniformDouble(0, 60);
          const double y = rng.UniformDouble(0, 60);
          rects.push_back(Rect(x, y, x + rng.UniformDouble(5, 40),
                               y + rng.UniformDouble(5, 40)));
        }
        const QuerySet queries(rects);
        const MergeContext ctx(&queries, estimator, procedure);
        CostModel model;
        model.k_m = rng.UniformDouble(0.5, 200.0);
        model.k_t = rng.UniformDouble(0.0, 2.0);
        model.k_u = rng.UniformDouble(0.0, 2.0);
        const std::string label = std::string(procedure_name) + "/" +
                                  estimator_name + " seed " +
                                  std::to_string(seed);
        std::vector<QueryId> all(n);
        for (QueryId id = 0; id < n; ++id) all[id] = id;
        const double bound = plan::FreshPlanCostLowerBound(ctx, model, all);
        EXPECT_GE(bound, model.k_m) << label;
        const Result<MergeOutcome> optimum =
            PartitionMerger().Merge(ctx, model);
        ASSERT_TRUE(optimum.ok()) << label;
        EXPECT_LE(bound, optimum->cost) << label;

        std::vector<QueryId> live;
        for (QueryId id = 0; id < n; ++id) {
          if (rng.UniformInt(0, 1) == 1) live.push_back(id);
        }
        const double live_bound =
            plan::FreshPlanCostLowerBound(ctx, model, live);
        for (int draw = 0; draw < 10; ++draw) {
          EXPECT_LE(bound,
                    model.PartitionCost(ctx, random_partition(all, &rng)))
              << label;
          if (live.empty()) continue;
          EXPECT_LE(live_bound,
                    model.PartitionCost(ctx, random_partition(live, &rng)))
              << label << ", live subset of " << live.size();
        }
      }
    }
  }
}

TEST(PlannerPruningTest, FreshPlanLowerBoundIsZeroWithoutABound) {
  Instance inst(6, 3, "bounding-rect", "uniform");
  const CostModel model{2.0, 1.0, 1.0, 0.0};
  EXPECT_EQ(plan::FreshPlanCostLowerBound(*inst.ctx, model, {}), 0.0);
  // A negative coefficient (CostModel::SupportsBenefitBounds fails)
  // bounds nothing.
  const std::vector<QueryId> all = {0, 1, 2, 3, 4, 5};
  EXPECT_GT(plan::FreshPlanCostLowerBound(*inst.ctx, model, all), 0.0);
  for (const CostModel& unbounded :
       {CostModel{-1.0, 1.0, 1.0, 0.0}, CostModel{2.0, -1.0, 1.0, 0.0},
        CostModel{2.0, 1.0, -1.0, 0.0}}) {
    ASSERT_FALSE(unbounded.SupportsBenefitBounds());
    EXPECT_EQ(plan::FreshPlanCostLowerBound(*inst.ctx, unbounded, all), 0.0);
  }
}

// ---------------------------------------------------------- context fixes

// Regression: a MergeContext watching a QuerySet that *shrank* (ids
// reassigned) must drop every stale cache instead of serving sizes and
// group stats of the old queries — or indexing out of range.
TEST(PlannerPruningTest, MergeContextSurvivesShrinkingQuerySet) {
  QuerySet queries;
  for (int i = 0; i < 8; ++i) {
    const double x = 10.0 * i;
    queries.Add(Rect(x, 0, x + 4, 4));
  }
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  EXPECT_DOUBLE_EQ(ctx.Size(7), 16.0);
  EXPECT_GT(ctx.Stats({6, 7}).size, 0.0);

  // Replace with a smaller set: old id 7 is gone, id 0 is a new rect.
  queries = QuerySet({Rect(0, 0, 2, 2), Rect(5, 5, 7, 7)});
  EXPECT_DOUBLE_EQ(ctx.Size(0), 4.0);
  EXPECT_DOUBLE_EQ(ctx.Size(1), 4.0);
  // Group stats must be recomputed against the new rects, not replayed
  // from the old-id cache.
  const GroupStats& stats = ctx.Stats({0, 1});
  EXPECT_DOUBLE_EQ(stats.size, 49.0);  // bbox (0,0)-(7,7)

  // Growth after the shrink keeps the fresh entries valid.
  queries.Add(Rect(100, 100, 101, 101));
  EXPECT_DOUBLE_EQ(ctx.Size(2), 1.0);
  EXPECT_DOUBLE_EQ(ctx.Size(0), 4.0);
}

// The UnionSize fast path (x-separated rects skip the sweep) must be
// bit-identical to the sweep's decomposition for every arrangement.
TEST(PlannerPruningTest, UnionSizeMatchesSweepDecomposition) {
  const std::vector<std::pair<Rect, Rect>> cases = {
      {Rect(0, 0, 10, 10), Rect(20, 5, 30, 15)},   // x-separated
      {Rect(20, 5, 30, 15), Rect(0, 0, 10, 10)},   // reversed order
      {Rect(0, 0, 10, 10), Rect(10, 20, 30, 25)},  // touching in x
      {Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)},    // overlapping
      {Rect(0, 0, 10, 10), Rect(2, 20, 8, 30)},    // y-separated only
      {Rect(0, 0, 10, 10), Rect(0, 0, 10, 10)},    // identical
  };
  UniformDensityEstimator estimator(0.5);
  BoundingRectProcedure procedure;
  for (const auto& [ra, rb] : cases) {
    QuerySet queries({ra, rb});
    MergeContext ctx(&queries, &estimator, &procedure);
    const RectilinearRegion region = RectilinearRegion::UnionOf({ra, rb});
    const double expected = estimator.EstimateRegionSize(region.pieces());
    EXPECT_EQ(ctx.UnionSize(0, 1), expected)
        << ra.ToString() << " U " << rb.ToString();
    EXPECT_EQ(ctx.UnionSize(1, 0), expected)
        << rb.ToString() << " U " << ra.ToString();
  }
}

// Property sweep of the same identity over random rects, including
// degenerate (zero-extent) ones that must take the sweep path.
TEST(PlannerPruningTest, UnionSizeMatchesSweepOnRandomRects) {
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    auto random_rect = [&rng]() {
      const double x = rng.UniformDouble(0, 90);
      const double y = rng.UniformDouble(0, 90);
      const double w = rng.UniformDouble(0, 10);
      const double h = rng.UniformDouble(0, 10);
      return Rect(x, y, x + w, y + h);
    };
    const Rect ra = random_rect();
    const Rect rb = random_rect();
    QuerySet queries({ra, rb});
    MergeContext ctx(&queries, &estimator, &procedure);
    const RectilinearRegion region = RectilinearRegion::UnionOf({ra, rb});
    EXPECT_EQ(ctx.UnionSize(0, 1),
              estimator.EstimateRegionSize(region.pieces()))
        << ra.ToString() << " U " << rb.ToString();
  }
}

}  // namespace
}  // namespace qsp
