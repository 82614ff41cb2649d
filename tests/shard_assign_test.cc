// Shard assignment (merge/shard_assign.h): the layout layer under the
// sharded planner (DESIGN.md §13). The contracts under test: the
// bisection is budgeted, dense, terminates and is deterministic on
// degenerate inputs (all-same-center populations, centers exactly on a
// cut line, empty rects); queries go to shards by rectangle center along
// the cut tree, and the leaf boxes tile the bounds of the placed rects;
// boundless queries keep kBoundlessShard but are accounted to shard 0;
// and the cost weights make dense queries heavier than isolated ones.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "geom/rect.h"
#include "merge/shard_assign.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

std::vector<Rect> HybridRects(size_t n, uint64_t seed) {
  Rng rng(seed);
  QueryGenConfig config;
  config.num_queries = n;
  return GenerateQueries(config, &rng);
}

void ExpectLayoutsEqual(const ShardLayout& a, const ShardLayout& b) {
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.shard_cost, b.shard_cost);
  EXPECT_EQ(a.shard_queries, b.shard_queries);
  ASSERT_EQ(a.cuts.size(), b.cuts.size());
  for (size_t i = 0; i < a.cuts.size(); ++i) {
    EXPECT_EQ(a.cuts[i].axis, b.cuts[i].axis);
    EXPECT_EQ(a.cuts[i].coord, b.cuts[i].coord);
    EXPECT_EQ(a.cuts[i].left, b.cuts[i].left);
    EXPECT_EQ(a.cuts[i].right, b.cuts[i].right);
  }
}

// Every query assigned (boundless to kBoundlessShard), ids in range,
// per-shard accounting consistent with the assignment.
void ExpectLayoutWellFormed(const ShardLayout& layout,
                            const std::vector<Rect>& rects) {
  ASSERT_EQ(layout.shard_of.size(), rects.size());
  ASSERT_EQ(layout.shard_cost.size(),
            static_cast<size_t>(layout.num_shards));
  ASSERT_EQ(layout.shard_queries.size(),
            static_cast<size_t>(layout.num_shards));
  ASSERT_EQ(layout.shard_box.size(), static_cast<size_t>(layout.num_shards));
  size_t total_queries = 0;
  for (size_t q : layout.shard_queries) total_queries += q;
  EXPECT_EQ(total_queries, rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    const int32_t s = layout.shard_of[i];
    if (rects[i].IsEmpty()) {
      EXPECT_EQ(s, ShardLayout::kBoundlessShard) << "rect " << i;
    } else {
      EXPECT_GE(s, 0) << "rect " << i;
      EXPECT_LT(s, layout.num_shards) << "rect " << i;
    }
  }
}

// Balanced assignment treats the request as a budget: never more shards
// than requested, ids dense [0, num_shards), every shard non-empty, and
// the whole layout identical across repeated runs.
TEST(ShardAssignTest, BalancedIsBudgetedDenseAndDeterministic) {
  const std::vector<Rect> rects = HybridRects(400, 11);
  for (const int shards : {2, 5, 16}) {
    const ShardLayout layout = AssignShards(rects, shards);
    ExpectLayoutWellFormed(layout, rects);
    EXPECT_GE(layout.num_shards, 1);
    EXPECT_LE(layout.num_shards, shards);
    for (size_t q : layout.shard_queries) EXPECT_GT(q, 0u);
    EXPECT_GE(layout.Imbalance(), 1.0);
    ExpectLayoutsEqual(layout, AssignShards(rects, shards));
  }
}

// All-same-center rects with positive extents: every candidate cut is
// fully straddled, so the bisection must stop splitting (one shard)
// rather than manufacturing all-seam slivers — and must terminate.
TEST(ShardAssignTest, BalancedSameCenterExtentsRefusesToSliver) {
  const std::vector<Rect> rects(64, Rect(10, 10, 30, 30));
  const ShardLayout layout = AssignShards(rects, 8);
  ExpectLayoutWellFormed(layout, rects);
  EXPECT_EQ(layout.num_shards, 1);
  EXPECT_TRUE(layout.cuts.empty());
  EXPECT_DOUBLE_EQ(layout.Imbalance(), 1.0);
}

// All-same-center zero-extent points: nothing straddles a cut through
// the common coordinate, so the id tie-break splits the population into
// the full budget (uneven counts are fine — the balance slack may snap
// within its window — but every shard is non-empty and the layout is
// deterministic).
TEST(ShardAssignTest, BalancedSameCenterPointsSplitByIdTieBreak) {
  const std::vector<Rect> rects(64, Rect(42, 17, 42, 17));
  const ShardLayout layout = AssignShards(rects, 8);
  ExpectLayoutWellFormed(layout, rects);
  EXPECT_EQ(layout.num_shards, 8);
  for (size_t q : layout.shard_queries) EXPECT_GT(q, 0u);
  ExpectLayoutsEqual(layout, AssignShards(rects, 8));
}

// Centers exactly on the cut line: two rects whose shared center
// coordinate is the midpoint the cut lands on. The (center, id) order
// puts the tie pair on deterministic sides; repeated runs agree.
TEST(ShardAssignTest, BalancedCentersOnCutLineAreDeterministic) {
  std::vector<Rect> rects;
  for (int i = 0; i < 8; ++i) {
    rects.push_back(Rect(10.0 * i, 0, 10.0 * i, 4));   // centers 0..70
    rects.push_back(Rect(35, 10 + i, 35, 14 + i));     // centers all x=35
  }
  const ShardLayout layout = AssignShards(rects, 2);
  ExpectLayoutWellFormed(layout, rects);
  ExpectLayoutsEqual(layout, AssignShards(rects, 2));
  if (!layout.cuts.empty()) {
    // Assignment is consistent with the cut: every rect center strictly
    // left of the cut is in a left-subtree shard (ties may go either
    // side, but deterministically).
    EXPECT_EQ(layout.cuts[0].axis, 0);
  }
}

// Empty rects: kBoundlessShard in shard_of, counted in shard 0's
// accounting (where the planner parks them), and maximal cost weight
// (they pair with everything).
TEST(ShardAssignTest, BoundlessRectsParkInShardZero) {
  std::vector<Rect> rects;
  Rng rng(3);
  QueryGenConfig config;
  config.num_queries = 100;
  rects = GenerateQueries(config, &rng);
  rects.push_back(Rect::Empty());
  rects.push_back(Rect::Empty());
  const std::vector<double> weights = PlanningCostWeights(rects);
  ASSERT_EQ(weights.size(), rects.size());
  // Boundless weight = 1 + population; no placed rect can exceed it.
  for (size_t i = 0; i < rects.size(); ++i) {
    EXPECT_LE(weights[i], weights.back());
  }
  EXPECT_DOUBLE_EQ(weights.back(), 1.0 + static_cast<double>(rects.size()));

  const ShardLayout layout = AssignShards(rects, 4);
  ExpectLayoutWellFormed(layout, rects);
  EXPECT_EQ(layout.shard_of[rects.size() - 1], ShardLayout::kBoundlessShard);
  EXPECT_EQ(layout.shard_of[rects.size() - 2], ShardLayout::kBoundlessShard);
  // shard 0 absorbs the two boundless queries and their weight.
  size_t placed_in_zero = 0;
  for (size_t i = 0; i + 2 < rects.size(); ++i) {
    if (layout.shard_of[i] == 0) ++placed_in_zero;
  }
  EXPECT_EQ(layout.shard_queries[0], placed_in_zero + 2);
}

// An all-empty population must not crash and collapses to one shard
// holding everything.
TEST(ShardAssignTest, AllBoundlessCollapsesToOneShard) {
  const std::vector<Rect> rects(5, Rect::Empty());
  const ShardLayout layout = AssignShards(rects, 4);
  ExpectLayoutWellFormed(layout, rects);
  EXPECT_EQ(layout.shard_queries[0], rects.size());
  EXPECT_EQ(layout.num_shards, 1);
  EXPECT_DOUBLE_EQ(layout.Imbalance(), 1.0);
}

// The request is a budget of at least one shard: 1, 0 and a negative
// request all give the same single-shard layout — no cuts, every placed
// rect in shard 0, its box the bounds of the placed rects, no seam
// sides.
TEST(ShardAssignTest, RequestBelowTwoIsOneShard) {
  std::vector<Rect> rects = HybridRects(120, 23);
  Rect bounds = Rect::Empty();
  for (const Rect& r : rects) bounds = bounds.BoundingUnion(r);
  rects.push_back(Rect::Empty());

  const ShardLayout one = AssignShards(rects, 1);
  ExpectLayoutWellFormed(one, rects);
  EXPECT_EQ(one.num_shards, 1);
  EXPECT_TRUE(one.cuts.empty());
  EXPECT_EQ(one.shard_box[0], bounds);
  EXPECT_FALSE(one.shard_open[0].x_lo || one.shard_open[0].x_hi ||
               one.shard_open[0].y_lo || one.shard_open[0].y_hi);
  for (size_t i = 0; i + 1 < rects.size(); ++i) {
    EXPECT_EQ(one.shard_of[i], 0) << "rect " << i;
  }
  EXPECT_EQ(one.shard_of.back(), ShardLayout::kBoundlessShard);
  EXPECT_DOUBLE_EQ(one.shard_cost[0], one.total_cost);
  EXPECT_DOUBLE_EQ(one.Imbalance(), 1.0);
  for (const int shards : {0, -3}) {
    ExpectLayoutsEqual(AssignShards(rects, shards), one);
  }
}

// Assignment is by rectangle center (Rect::Center()): walking the cut
// tree with a placed rect's center reaches the leaf that holds it, and
// that leaf's box contains the center. A center exactly on a cut line
// may go to either side, so for those only the box is checked.
TEST(ShardAssignTest, CentersWalkTheCutTreeToTheirShard) {
  std::vector<Rect> rects = HybridRects(400, 13);
  rects.push_back(Rect::Empty());
  for (const int shards : {2, 5, 16}) {
    const ShardLayout layout = AssignShards(rects, shards);
    ExpectLayoutWellFormed(layout, rects);
    ASSERT_GT(layout.num_shards, 1) << "shards " << shards;
    ASSERT_FALSE(layout.cuts.empty()) << "shards " << shards;
    for (size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].IsEmpty()) continue;
      const Point center = rects[i].Center();
      const int32_t shard = layout.shard_of[i];
      EXPECT_TRUE(layout.shard_box[static_cast<size_t>(shard)].Contains(
          center))
          << "shards " << shards << " rect " << i;
      int32_t node = 0;
      bool on_cut = false;
      while (node >= 0) {
        const ShardCutNode& cut = layout.cuts[static_cast<size_t>(node)];
        const double c = cut.axis == 0 ? center.x : center.y;
        if (c == cut.coord) {
          on_cut = true;
          break;
        }
        node = c < cut.coord ? cut.left : cut.right;
      }
      if (!on_cut) {
        EXPECT_EQ(-node - 1, shard) << "shards " << shards << " rect " << i;
      }
    }
  }
}

// The leaf boxes tile the bounds of the placed rects: boundless rects
// do not widen them, the boxes cover exactly the bounds and their areas
// sum to its area, and a box side is a seam side exactly when it does
// not lie on the bounds (the domain boundary has no neighbor).
TEST(ShardAssignTest, ShardBoxesTileThePlacedBounds) {
  std::vector<Rect> rects = HybridRects(300, 19);
  Rect bounds = Rect::Empty();
  for (const Rect& r : rects) bounds = bounds.BoundingUnion(r);
  rects.insert(rects.begin() + 7, Rect::Empty());
  rects.push_back(Rect::Empty());
  for (const int shards : {4, 9, 16}) {
    const ShardLayout layout = AssignShards(rects, shards);
    ExpectLayoutWellFormed(layout, rects);
    ASSERT_GT(layout.num_shards, 1) << "shards " << shards;
    ASSERT_EQ(layout.shard_open.size(),
              static_cast<size_t>(layout.num_shards));
    Rect cover = Rect::Empty();
    double area = 0.0;
    for (size_t s = 0; s < layout.shard_box.size(); ++s) {
      const Rect& box = layout.shard_box[s];
      const ShardLayout::SeamSides& open = layout.shard_open[s];
      const std::string label =
          "shards " + std::to_string(shards) + " box " + std::to_string(s);
      EXPECT_TRUE(bounds.Contains(box)) << label;
      cover = cover.BoundingUnion(box);
      area += box.Area();
      EXPECT_EQ(open.x_lo, box.x_lo() != bounds.x_lo()) << label;
      EXPECT_EQ(open.x_hi, box.x_hi() != bounds.x_hi()) << label;
      EXPECT_EQ(open.y_lo, box.y_lo() != bounds.y_lo()) << label;
      EXPECT_EQ(open.y_hi, box.y_hi() != bounds.y_hi()) << label;
    }
    EXPECT_EQ(cover, bounds) << "shards " << shards;
    EXPECT_NEAR(area, bounds.Area(), 1e-9 * bounds.Area())
        << "shards " << shards;
  }
}

// Weights read candidate density off the spatial grid: a query inside a
// dense pile must weigh more than a far-away isolated one.
TEST(ShardAssignTest, CostWeightsFollowDensity) {
  std::vector<Rect> rects;
  for (int i = 0; i < 30; ++i) {
    rects.push_back(Rect(100 + i, 100, 140 + i, 140));  // dense pile
  }
  rects.push_back(Rect(900, 900, 905, 905));  // isolated
  const std::vector<double> weights = PlanningCostWeights(rects);
  EXPECT_GT(weights[0], weights.back());
  for (double w : weights) EXPECT_GE(w, 1.0);
}

}  // namespace
}  // namespace qsp
